//! Application state: dictionaries of key→value entries with transactions.
//!
//! Each bee owns a [`BeeState`]: the slice of its application's dictionaries
//! corresponding to the cells in its colony. Handlers run inside a
//! transaction ([`TxState`]) — the paper's "dictionaries … with support for
//! transactions".
//!
//! # Copy-on-write engine
//!
//! Values are shared buffers ([`SharedBytes`], an `Arc<[u8]>`): reads are
//! refcount bumps, never deep copies. Every dictionary entry carries a
//! *generation stamp* — a per-state monotonic counter recorded at write time.
//! A transaction writes directly into the base state and keeps two logs:
//!
//! * an **undo log** recording each touched entry's previous value and
//!   generation (first touch per savepoint era only — a repeated write to an
//!   entry whose generation is at or above the era floor needs no new
//!   record), so rollback is O(touched keys) rather than O(state);
//! * a **redo journal** of every op in execution order, byte-identical to the
//!   pre-COW engine's commit journal, shipped to replicas on commit.
//!
//! [`TxState::savepoint`] marks a point mid-transaction;
//! [`TxState::rollback_to`] unwinds exactly the ops after it and
//! [`TxState::journal_since`] reads exactly the ops after it. The
//! hive runs each message from a savepoint: a handler failure rolls back
//! only that message.
//!
//! Wire compatibility: [`BeeState::snapshot`], [`Dict`] and [`TxJournal`]
//! serialize byte-identically to the pre-COW clone-based engine — generation
//! stamps are bookkeeping, never persisted or replicated.
//!
//! # Decoded slots
//!
//! Beside its bytes, every entry has a set-once slot for the value decoded.
//! [`TxState::get_cached`] answers from it when it holds the type asked
//! for, and otherwise decodes and fills it; [`TxState::put_cached`] fills it
//! with the value it encodes; [`TxState::update`] mutates the slot's value
//! in place and encodes it once. Only the bytes are persisted, journaled,
//! replicated, shipped, snapshotted and compared: every write that has no
//! typed value at hand (raw puts, deletes, journal replay, snapshot restore,
//! colony absorption) leaves the slot empty, and an undo record restores a
//! slot together with its bytes.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use serde::de::{DeserializeOwned, SeqAccess, Visitor};
use serde::ser::SerializeStruct;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::error::{Error, Result};
use crate::id::Name;

/// A dictionary key. Applications typically use switch ids, MAC addresses,
/// prefixes or virtual-network ids rendered as strings.
pub type Key = String;

/// An encoded dictionary value: an immutable, cheaply-clonable shared buffer.
///
/// Cloning bumps a refcount; the bytes are never copied. On the wire it is
/// an opaque byte payload (`varint len + raw`, [`beehive_wire::Bytes`]) —
/// the same bytes a `Vec<u8>` produces, so snapshots and replication
/// journals are unchanged from the clone-based engine.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SharedBytes(Arc<[u8]>);

/// An encoded dictionary value.
pub type Value = SharedBytes;

impl SharedBytes {
    /// An owned copy of the bytes (for APIs that need a `Vec<u8>`).
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }
}

impl Deref for SharedBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for SharedBytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(v: Vec<u8>) -> Self {
        Self(v.into())
    }
}

impl From<&[u8]> for SharedBytes {
    fn from(v: &[u8]) -> Self {
        Self(Arc::from(v))
    }
}

impl PartialEq<Vec<u8>> for SharedBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self.0 == other[..]
    }
}

impl PartialEq<[u8]> for SharedBytes {
    fn eq(&self, other: &[u8]) -> bool {
        *self.0 == *other
    }
}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl Serialize for SharedBytes {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        beehive_wire::Bytes(&self.0).serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for SharedBytes {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        beehive_wire::ByteBuf::deserialize(deserializer).map(|b| Self::from(b.into_vec()))
    }
}

/// An entry's value as a typed read or write last had it in hand.
type Decoded = Arc<dyn Any + Send + Sync>;

/// One dictionary entry: the value plus the generation stamp of the write
/// that produced it. Generation 0 marks non-transactional writes (snapshot
/// restore, journal replay, colony absorption, direct `put_raw`).
#[derive(Debug, Clone)]
struct Entry {
    value: Value,
    gen: u64,
    /// `value` decoded, once a typed read or write has produced it.
    decoded: OnceLock<Decoded>,
}

impl Entry {
    /// An entry whose decoded slot is empty.
    fn raw(value: Value, gen: u64) -> Self {
        Entry {
            value,
            gen,
            decoded: OnceLock::new(),
        }
    }
}

/// Decodes an entry's bytes as `T`.
fn decode<T: DeserializeOwned>(dict: &str, key: &str, bytes: &[u8]) -> Result<T> {
    beehive_wire::from_slice(bytes).map_err(|e| Error::StateDecode {
        dict: dict.to_string(),
        key: key.to_string(),
        source: e,
    })
}

/// One state dictionary: an ordered map of keys to encoded values. Keys
/// are held as [`Name`]s, so a transaction's logs share them.
#[derive(Debug, Clone, Default)]
pub struct Dict {
    entries: BTreeMap<Name, Entry>,
}

impl Dict {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raw get.
    pub fn get_raw(&self, key: &str) -> Option<&Value> {
        self.entries.get(key).map(|e| &e.value)
    }

    /// Typed get: decodes the stored bytes as `T`.
    pub fn get<T: DeserializeOwned>(&self, key: &str) -> Result<Option<T>> {
        self.entries
            .get(key)
            .map(|e| decode("", key, &e.value))
            .transpose()
    }

    /// Raw put (non-transactional; stamps generation 0).
    pub fn put_raw(&mut self, key: impl Into<Name>, value: impl Into<Value>) {
        self.entries.insert(key.into(), Entry::raw(value.into(), 0));
    }

    /// Typed put: encodes `value` with the wire format.
    pub fn put<T: Serialize>(&mut self, key: impl Into<Name>, value: &T) -> Result<()> {
        self.put_raw(key, beehive_wire::to_vec(value)?);
        Ok(())
    }

    /// Removes a key, returning whether it existed.
    pub fn del(&mut self, key: &str) -> bool {
        self.entries.remove(key).is_some()
    }

    /// Whether a key exists.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(Name::as_str)
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, e)| (k.as_str(), &e.value))
    }

    fn from_plain(entries: BTreeMap<Name, Value>) -> Self {
        Self {
            entries: entries
                .into_iter()
                .map(|(k, value)| (k, Entry::raw(value, 0)))
                .collect(),
        }
    }
}

/// Equality ignores generation stamps: two dicts with the same contents are
/// equal even if written along different execution paths (e.g.
/// snapshot-restored vs transaction-built).
impl PartialEq for Dict {
    fn eq(&self, other: &Self) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(other.entries.iter())
                .all(|((ka, ea), (kb, eb))| ka == kb && ea.value == eb.value)
    }
}

impl Eq for Dict {}

impl Serialize for Dict {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        // Mirrors the derived impl for `struct Dict { entries: BTreeMap<Key,
        // Vec<u8>> }`: a one-field struct whose field is a key→bytes map.
        // Generation stamps are never serialized.
        struct EntriesView<'a>(&'a BTreeMap<Name, Entry>);
        impl Serialize for EntriesView<'_> {
            fn serialize<S: Serializer>(
                &self,
                serializer: S,
            ) -> std::result::Result<S::Ok, S::Error> {
                serializer.collect_map(self.0.iter().map(|(k, e)| (k, &e.value)))
            }
        }
        let mut st = serializer.serialize_struct("Dict", 1)?;
        st.serialize_field("entries", &EntriesView(&self.entries))?;
        st.end()
    }
}

impl<'de> Deserialize<'de> for Dict {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        struct DictVisitor;
        impl<'de> Visitor<'de> for DictVisitor {
            type Value = Dict;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("struct Dict")
            }
            fn visit_seq<A: SeqAccess<'de>>(
                self,
                mut seq: A,
            ) -> std::result::Result<Dict, A::Error> {
                let entries: BTreeMap<Name, Value> = seq
                    .next_element()?
                    .ok_or_else(|| serde::de::Error::invalid_length(0, &self))?;
                Ok(Dict::from_plain(entries))
            }
        }
        deserializer.deserialize_struct("Dict", &["entries"], DictVisitor)
    }
}

/// The state a single bee owns: its application dictionaries restricted to
/// the bee's colony.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BeeState {
    dicts: BTreeMap<Name, Dict>,
    /// Monotonic generation counter for transactional writes. Skipped in
    /// serde — snapshots stay wire-identical to the pre-COW format, and a
    /// restored state restarts at zero with every entry at generation 0.
    #[serde(skip)]
    gen: u64,
}

/// Equality compares dictionary contents only; the generation counter is
/// execution-path bookkeeping.
impl PartialEq for BeeState {
    fn eq(&self, other: &Self) -> bool {
        self.dicts == other.dicts
    }
}

impl Eq for BeeState {}

impl BeeState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The dictionary named `name`, if it has any entries.
    pub fn dict(&self, name: &str) -> Option<&Dict> {
        self.dicts.get(name)
    }

    /// The dictionary named `name`, created on first use.
    pub fn dict_mut(&mut self, name: &str) -> &mut Dict {
        if !self.dicts.contains_key(name) {
            self.dicts.insert(name.into(), Dict::new());
        }
        self.dicts.get_mut(name).expect("inserted above")
    }

    /// Names of non-empty dictionaries.
    pub fn dict_names(&self) -> impl Iterator<Item = &str> {
        self.dicts.keys().map(Name::as_str)
    }

    /// Total number of entries across all dictionaries.
    pub fn total_entries(&self) -> usize {
        self.dicts.values().map(Dict::len).sum()
    }

    /// Serializes the whole state (migration, colony merges, replication).
    pub fn snapshot(&self) -> Result<Vec<u8>> {
        beehive_wire::to_vec(self).map_err(Error::from)
    }

    /// Restores a state serialized by [`BeeState::snapshot`].
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self> {
        beehive_wire::from_slice(bytes).map_err(Error::from)
    }

    /// Merges another bee's state into this one (colony merge). Keys from
    /// `other` win on conflict — but by the platform's exclusivity invariant
    /// there should be none; conflicts are counted and reported.
    pub fn absorb(&mut self, other: BeeState) -> usize {
        let mut conflicts = 0;
        for (name, dict) in other.dicts {
            let target = self.dicts.entry(name).or_default();
            for (k, e) in dict.entries {
                // Absorbed entries are non-transactional writes: gen 0.
                if target.entries.insert(k, Entry::raw(e.value, 0)).is_some() {
                    conflicts += 1;
                }
            }
        }
        conflicts
    }
}

/// One undo record: enough to restore a single touched entry (or un-create a
/// dictionary) during rollback.
#[derive(Debug)]
enum Undo {
    /// `dict[key]` was `prev` (value, generation and decoded slot) when the
    /// current era first touched it; `None` means the key was absent.
    Entry {
        dict: Name,
        key: Name,
        prev: Option<Entry>,
    },
    /// The dictionary itself was created by this transaction.
    CreatedDict { dict: Name },
}

/// A transaction's logs. A transaction owns them while it is open; a
/// caller that runs many transactions lends the same logs to each
/// ([`TxState::begin_with`], [`TxState::commit_keeping_logs`]), so their
/// buffers are sized once rather than per transaction and no state carries
/// them between transactions. The names in them are the dictionary's own,
/// shared.
#[derive(Debug, Default)]
pub(crate) struct TxLogs {
    undo: Vec<Undo>,
    /// Ordered journal for deterministic replay (colony replication).
    redo: Vec<JournalOp>,
    /// Where a typed put encodes its value before copying it into the
    /// value's own shared buffer.
    encoded: Vec<u8>,
}

impl TxLogs {
    fn clear(&mut self) {
        self.undo.clear();
        self.redo.clear();
    }
}

/// A point inside an open transaction. [`TxState::rollback_to`] unwinds all
/// writes after it; [`TxState::journal_since`] reads their journal.
#[derive(Debug, Clone)]
pub struct Savepoint {
    undo_len: usize,
    redo_len: usize,
}

/// A transaction over a [`BeeState`]: copy-on-write, generation-stamped.
///
/// Writes apply directly to the base state; an undo log (previous value +
/// generation of each first-touched entry) makes [`TxState::rollback`] and
/// [`TxState::rollback_to`] O(touched keys). The redo journal preserves every
/// op in execution order — byte-identical to the clone-based engine's commit
/// journal — for colony replication.
#[derive(Debug)]
pub struct TxState<'a> {
    base: &'a mut BeeState,
    logs: TxLogs,
    /// Entries with `gen >= era_floor` were first touched in the current
    /// savepoint era and already have an undo record.
    era_floor: u64,
}

impl<'a> TxState<'a> {
    /// Opens a transaction over `base`.
    pub fn begin(base: &'a mut BeeState) -> Self {
        Self::begin_with(base, TxLogs::default())
    }

    /// Opens a transaction over `base` that keeps its logs in `logs`
    /// (emptied here), handed back by [`TxState::commit_keeping_logs`].
    pub(crate) fn begin_with(base: &'a mut BeeState, mut logs: TxLogs) -> Self {
        logs.clear();
        let era_floor = base.gen + 1;
        TxState {
            base,
            logs,
            era_floor,
        }
    }

    /// Raw read: a refcount bump, never a byte copy.
    pub fn get_raw(&self, dict: &str, key: &str) -> Option<Value> {
        self.base.dict(dict).and_then(|d| d.get_raw(key)).cloned()
    }

    /// The entry at `dict[key]`, if any.
    fn entry(&self, dict: &str, key: &str) -> Option<&Entry> {
        self.base.dict(dict).and_then(|d| d.entries.get(key))
    }

    /// Typed read: decodes the entry's bytes.
    pub fn get<T: DeserializeOwned>(&self, dict: &str, key: &str) -> Result<Option<T>> {
        self.entry(dict, key)
            .map(|e| decode(dict, key, &e.value))
            .transpose()
    }

    /// Typed read through the entry's decoded slot: a clone of the slot when
    /// it holds a `T`; otherwise the bytes decoded, left in the slot if it
    /// was empty.
    pub fn get_cached<T: DeserializeOwned + Clone + Send + Sync + 'static>(
        &self,
        dict: &str,
        key: &str,
    ) -> Result<Option<T>> {
        let Some(e) = self.entry(dict, key) else {
            return Ok(None);
        };
        match e.decoded.get() {
            Some(slot) => match slot.downcast_ref::<T>() {
                Some(v) => Ok(Some(v.clone())),
                None => decode(dict, key, &e.value).map(Some),
            },
            None => {
                let v: T = decode(dict, key, &e.value)?;
                let _ = e.decoded.set(Arc::new(v.clone()));
                Ok(Some(v))
            }
        }
    }

    /// Ensures `dict` exists, recording its creation for rollback, and
    /// returns its name.
    fn ensure_dict(&mut self, dict: &str) -> Name {
        if let Some((name, _)) = self.base.dicts.get_key_value(dict) {
            return name.clone();
        }
        let name = Name::from(dict);
        self.base.dicts.insert(name.clone(), Dict::new());
        self.logs
            .undo
            .push(Undo::CreatedDict { dict: name.clone() });
        name
    }

    /// Raw write. A key the dictionary already holds is not copied.
    pub fn put_raw(
        &mut self,
        dict: &str,
        key: impl AsRef<str> + Into<Name>,
        value: impl Into<Value>,
    ) {
        self.write(dict, key, value.into(), OnceLock::new());
    }

    /// Writes `dict[key]` with its decoded slot.
    fn write(
        &mut self,
        dict: &str,
        key: impl AsRef<str> + Into<Name>,
        value: Value,
        decoded: OnceLock<Decoded>,
    ) {
        let dict = self.ensure_dict(dict);
        self.base.gen += 1;
        let gen = self.base.gen;
        let (dicts, logs) = (&mut self.base.dicts, &mut self.logs);
        let d = dicts.get_mut(dict.as_str()).expect("ensured above");
        let key = match d.entries.get_key_value(key.as_ref()) {
            Some((held, _)) => held.clone(),
            None => key.into(),
        };
        let prev = d.entries.insert(
            key.clone(),
            Entry {
                value: value.clone(),
                gen,
                decoded,
            },
        );
        match prev {
            // Already touched this era: its undo record restores the
            // pre-era state, so this write needs none.
            Some(e) if e.gen >= self.era_floor => {}
            prev => logs.undo.push(Undo::Entry {
                dict: dict.clone(),
                key: key.clone(),
                prev,
            }),
        }
        logs.redo.push(JournalOp::Put { dict, key, value });
    }

    /// Encodes `value` into a buffer the logs keep, then copies it once
    /// into its own shared buffer.
    fn encode<T: Serialize>(&mut self, value: &T) -> Result<Value> {
        let encoded = &mut self.logs.encoded;
        encoded.clear();
        value.serialize(&mut beehive_wire::Serializer::with_sink(&mut *encoded))?;
        Ok(SharedBytes::from(encoded.as_slice()))
    }

    /// Typed write: the encoded value, with the decoded slot left empty.
    pub fn put<T: Serialize>(
        &mut self,
        dict: &str,
        key: impl AsRef<str> + Into<Name>,
        value: &T,
    ) -> Result<()> {
        let bytes = self.encode(value)?;
        self.write(dict, key, bytes, OnceLock::new());
        Ok(())
    }

    /// [`TxState::put`] that also keeps a clone of `value` in the entry's
    /// decoded slot, for [`TxState::get_cached`].
    pub fn put_cached<T: Serialize + Clone + Send + Sync + 'static>(
        &mut self,
        dict: &str,
        key: impl AsRef<str> + Into<Name>,
        value: &T,
    ) -> Result<()> {
        let bytes = self.encode(value)?;
        let decoded: Decoded = Arc::new(value.clone());
        self.write(dict, key, bytes, OnceLock::from(decoded));
        Ok(())
    }

    /// Typed read-modify-write of `dict[key]` in place: `f` mutates the
    /// value (`T::default()` when the key is absent) and the result is
    /// written back, encoded once for the bytes and the journal, with the
    /// value kept in the decoded slot. The value mutated is the slot's own
    /// when it holds a `T` that nothing else shares — so an entry a typed
    /// write or read left decoded is neither decoded nor copied — a clone
    /// of it when shared, and the bytes decoded otherwise. The entry's undo
    /// record keeps its previous bytes with an empty slot.
    pub fn update<T, R>(
        &mut self,
        dict: &str,
        key: impl AsRef<str> + Into<Name>,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R>
    where
        T: Serialize + DeserializeOwned + Default + Clone + Send + Sync + 'static,
    {
        let entry = self
            .base
            .dicts
            .get_mut(dict)
            .and_then(|d| d.entries.get_mut(key.as_ref()));
        let mut decoded: Decoded = match entry {
            None => Arc::new(T::default()),
            Some(e) if e.decoded.get().is_some_and(|d| d.is::<T>()) => {
                let mut slot = e.decoded.take().expect("checked above");
                if Arc::get_mut(&mut slot).is_none() {
                    let shared = slot.downcast_ref::<T>().expect("checked above");
                    slot = Arc::new(shared.clone());
                }
                slot
            }
            Some(e) => Arc::new(decode::<T>(dict, key.as_ref(), &e.value)?),
        };
        let value = Arc::get_mut(&mut decoded)
            .and_then(|v| v.downcast_mut::<T>())
            .expect("a unique T");
        let out = f(value);
        let bytes = self.encode(&*value)?;
        self.write(dict, key, bytes, OnceLock::from(decoded));
        Ok(out)
    }

    /// Delete. Like the clone-based engine's commit, this creates the
    /// dictionary if missing (`dict_mut` semantics) — kept so state and
    /// snapshot bytes stay identical across the engine swap.
    pub fn del(&mut self, dict: &str, key: &str) {
        let dict = self.ensure_dict(dict);
        let (dicts, logs) = (&mut self.base.dicts, &mut self.logs);
        let d = dicts.get_mut(dict.as_str()).expect("ensured above");
        let key = match d.entries.remove_entry(key) {
            Some((held, e)) => {
                if e.gen < self.era_floor {
                    logs.undo.push(Undo::Entry {
                        dict: dict.clone(),
                        key: held.clone(),
                        prev: Some(e),
                    });
                }
                // else: first-touch undo record of this era already
                // restores it.
                held
            }
            // Deleting an absent key needs no undo: nothing to restore.
            None => Name::from(key),
        };
        logs.redo.push(JournalOp::Del { dict, key });
    }

    /// Whether a key is visible.
    pub fn contains(&self, dict: &str, key: &str) -> bool {
        self.base.dict(dict).is_some_and(|d| d.contains(key))
    }

    /// Keys visible for `dict`, in order.
    pub fn keys(&self, dict: &str) -> Vec<Key> {
        self.base
            .dict(dict)
            .map(|d| d.keys().map(str::to_string).collect())
            .unwrap_or_default()
    }

    /// Marks a point in the transaction. Ops after it can be unwound with
    /// [`TxState::rollback_to`] or read with [`TxState::journal_since`].
    /// Starts a new undo era: the next write to any entry — even one
    /// touched before the savepoint — records fresh undo state.
    pub fn savepoint(&mut self) -> Savepoint {
        self.era_floor = self.base.gen + 1;
        let logs = &self.logs;
        Savepoint {
            undo_len: logs.undo.len(),
            redo_len: logs.redo.len(),
        }
    }

    /// Unwinds every write after `sp` by replaying the undo log in reverse:
    /// O(keys touched since the savepoint). Writes before `sp` (including
    /// journal already dropped with [`TxState::clear_journal_since`]) are
    /// untouched.
    pub fn rollback_to(&mut self, sp: &Savepoint) {
        let (dicts, logs) = (&mut self.base.dicts, &mut self.logs);
        while logs.undo.len() > sp.undo_len {
            match logs.undo.pop().expect("len checked") {
                Undo::Entry { dict, key, prev } => match prev {
                    Some(e) => {
                        dicts.entry(dict).or_default().entries.insert(key, e);
                    }
                    None => {
                        if let Some(d) = dicts.get_mut(dict.as_str()) {
                            d.entries.remove(key.as_str());
                        }
                    }
                },
                Undo::CreatedDict { dict } => {
                    dicts.remove(dict.as_str());
                }
            }
        }
        logs.redo.truncate(sp.redo_len);
    }

    /// The journal of every op since `sp`, in order — the per-message
    /// replication journal in a batched drain.
    pub fn journal_since(&self, sp: &Savepoint) -> &[JournalOp] {
        &self.logs.redo[sp.redo_len..]
    }

    /// Drops the journal of every op since `sp` once it has been read with
    /// [`TxState::journal_since`]; the writes remain applied, and neither
    /// [`TxState::commit`] nor a later savepoint's journal returns them.
    pub fn clear_journal_since(&mut self, sp: &Savepoint) {
        self.logs.redo.truncate(sp.redo_len);
    }

    /// Closes the transaction, returning the journal not yet cleared, for
    /// replication. Writes are already applied — this is O(1).
    pub fn commit(self) -> TxJournal {
        self.commit_keeping_logs().0
    }

    /// [`TxState::commit`], also handing back the logs for the next
    /// [`TxState::begin_with`].
    pub(crate) fn commit_keeping_logs(mut self) -> (TxJournal, TxLogs) {
        let ops = if self.logs.redo.is_empty() {
            Vec::new()
        } else {
            std::mem::take(&mut self.logs.redo)
        };
        (TxJournal { ops }, self.logs)
    }

    /// Discards the transaction, restoring the base state: O(touched keys).
    pub fn rollback(mut self) -> TxJournal {
        let sp = Savepoint {
            undo_len: 0,
            redo_len: 0,
        };
        self.rollback_to(&sp);
        TxJournal { ops: Vec::new() }
    }
}

/// A journal slice as it goes on the wire: byte-identical to the
/// [`TxJournal`] holding the same ops.
pub(crate) struct JournalView<'a>(pub &'a [JournalOp]);

impl Serialize for JournalView<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("TxJournal", 1)?;
        st.serialize_field("ops", self.0)?;
        st.end()
    }
}

/// A committed write, replayable on a replica.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalOp {
    /// Set `dict[key] = value`.
    Put {
        /// Dictionary name.
        dict: Name,
        /// Entry key.
        key: Name,
        /// Encoded value.
        value: Value,
    },
    /// Remove `dict[key]`.
    Del {
        /// Dictionary name.
        dict: Name,
        /// Entry key.
        key: Name,
    },
}

/// The ordered writes of one committed transaction.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TxJournal {
    /// Writes in commit order.
    pub ops: Vec<JournalOp>,
}

impl TxJournal {
    /// Whether the transaction wrote anything.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Replays the journal onto `state` (colony replication).
    pub fn replay(&self, state: &mut BeeState) {
        for op in &self.ops {
            match op {
                JournalOp::Put { dict, key, value } => {
                    state.dict_mut(dict).put_raw(key.clone(), value.clone())
                }
                JournalOp::Del { dict, key } => {
                    state.dict_mut(dict).del(key);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dict_typed_roundtrip() {
        let mut d = Dict::new();
        d.put("k", &42u64).unwrap();
        assert_eq!(d.get::<u64>("k").unwrap(), Some(42));
        assert_eq!(d.get::<u64>("missing").unwrap(), None);
        assert!(d.contains("k"));
        assert!(d.del("k"));
        assert!(!d.del("k"));
    }

    #[test]
    fn dict_decode_error_is_reported() {
        let mut d = Dict::new();
        d.put_raw("k", vec![1]); // not a valid String encoding
        assert!(matches!(
            d.get::<String>("k"),
            Err(Error::StateDecode { .. })
        ));
    }

    #[test]
    fn tx_reads_see_uncommitted_writes() {
        let mut s = BeeState::new();
        s.dict_mut("S").put("sw1", &1u32).unwrap();
        let mut tx = TxState::begin(&mut s);
        assert_eq!(tx.get::<u32>("S", "sw1").unwrap(), Some(1));
        tx.put("S", "sw1", &2u32).unwrap();
        assert_eq!(tx.get::<u32>("S", "sw1").unwrap(), Some(2));
        tx.del("S", "sw1");
        assert_eq!(tx.get::<u32>("S", "sw1").unwrap(), None);
        assert!(!tx.contains("S", "sw1"));
    }

    #[test]
    fn rollback_discards_everything() {
        let mut s = BeeState::new();
        s.dict_mut("S").put("a", &1u32).unwrap();
        let mut tx = TxState::begin(&mut s);
        tx.put("S", "a", &99u32).unwrap();
        tx.put("S", "b", &100u32).unwrap();
        tx.del("S", "a");
        let j = tx.rollback();
        assert!(j.is_empty());
        assert_eq!(s.dict("S").unwrap().get::<u32>("a").unwrap(), Some(1));
        assert!(!s.dict("S").unwrap().contains("b"));
    }

    #[test]
    fn commit_applies_in_order_and_returns_journal() {
        let mut s = BeeState::new();
        let mut tx = TxState::begin(&mut s);
        tx.put("S", "a", &1u32).unwrap();
        tx.put("S", "a", &2u32).unwrap(); // overwrite within tx
        tx.put("T", "x", &"y".to_string()).unwrap();
        let j = tx.commit();
        assert_eq!(j.ops.len(), 3);
        assert_eq!(s.dict("S").unwrap().get::<u32>("a").unwrap(), Some(2));
        assert_eq!(
            s.dict("T").unwrap().get::<String>("x").unwrap(),
            Some("y".to_string())
        );
    }

    #[test]
    fn journal_replay_reproduces_state() {
        let mut s1 = BeeState::new();
        let mut tx = TxState::begin(&mut s1);
        tx.put("S", "a", &5u32).unwrap();
        tx.put("S", "b", &6u32).unwrap();
        tx.del("S", "b");
        let j = tx.commit();

        let mut s2 = BeeState::new();
        j.replay(&mut s2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn tx_keys_merges_overlay() {
        let mut s = BeeState::new();
        s.dict_mut("S").put("a", &1u32).unwrap();
        s.dict_mut("S").put("b", &2u32).unwrap();
        let mut tx = TxState::begin(&mut s);
        tx.del("S", "a");
        tx.put("S", "c", &3u32).unwrap();
        assert_eq!(tx.keys("S"), vec!["b".to_string(), "c".to_string()]);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut s = BeeState::new();
        s.dict_mut("S").put("sw1", &vec![1u64, 2, 3]).unwrap();
        s.dict_mut("T")
            .put("l1", &("sw1".to_string(), "sw2".to_string()))
            .unwrap();
        let snap = s.snapshot().unwrap();
        assert_eq!(BeeState::from_snapshot(&snap).unwrap(), s);
    }

    #[test]
    fn absorb_merges_and_counts_conflicts() {
        let mut a = BeeState::new();
        a.dict_mut("S").put("x", &1u32).unwrap();
        let mut b = BeeState::new();
        b.dict_mut("S").put("y", &2u32).unwrap();
        b.dict_mut("S").put("x", &3u32).unwrap(); // conflict
        let conflicts = a.absorb(b);
        assert_eq!(conflicts, 1);
        assert_eq!(a.dict("S").unwrap().get::<u32>("x").unwrap(), Some(3));
        assert_eq!(a.dict("S").unwrap().get::<u32>("y").unwrap(), Some(2));
    }

    #[test]
    fn snapshot_bytes_match_pre_cow_format() {
        // Pins the wire format: a BeeState must serialize exactly like the
        // old derived `struct BeeState { dicts: BTreeMap<String, Dict> }`
        // with `struct Dict { entries: BTreeMap<String, Vec<u8>> }`.
        #[derive(Serialize)]
        struct OldDict {
            entries: BTreeMap<String, Vec<u8>>,
        }
        #[derive(Serialize)]
        struct OldState {
            dicts: BTreeMap<String, OldDict>,
        }

        let mut s = BeeState::new();
        let mut tx = TxState::begin(&mut s);
        tx.put("S", "sw1", &7u64).unwrap();
        tx.put("S", "sw2", &"edge".to_string()).unwrap();
        tx.put("T", "l1", &(1u32, 2u32)).unwrap();
        tx.del("U", "ghost"); // creates empty dict "U", like the old engine
        tx.commit();

        let mut dicts = BTreeMap::new();
        for name in s.dict_names() {
            let d = s.dict(name).unwrap();
            dicts.insert(
                name.to_string(),
                OldDict {
                    entries: d.iter().map(|(k, v)| (k.to_string(), v.to_vec())).collect(),
                },
            );
        }
        assert_eq!(
            s.snapshot().unwrap(),
            beehive_wire::to_vec(&OldState { dicts }).unwrap()
        );
    }

    #[test]
    fn shared_bytes_serde_matches_vec() {
        let v = vec![0u8, 1, 2, 255, 128, 7];
        let sb = SharedBytes::from(v.clone());
        assert_eq!(
            beehive_wire::to_vec(&sb).unwrap(),
            beehive_wire::to_vec(&v).unwrap()
        );
        let back: SharedBytes =
            beehive_wire::from_slice(&beehive_wire::to_vec(&sb).unwrap()).unwrap();
        assert_eq!(back, sb);
    }

    #[test]
    fn journal_bytes_match_pre_cow_format() {
        #[derive(Serialize)]
        enum OldOp {
            #[allow(dead_code)]
            Put {
                dict: String,
                key: String,
                value: Vec<u8>,
            },
            #[allow(dead_code)]
            Del { dict: String, key: String },
        }
        #[derive(Serialize)]
        struct OldJournal {
            ops: Vec<OldOp>,
        }

        let mut s = BeeState::new();
        let mut tx = TxState::begin(&mut s);
        tx.put("S", "a", &42u64).unwrap();
        tx.del("S", "b");
        let j = tx.commit();

        let old = OldJournal {
            ops: vec![
                OldOp::Put {
                    dict: "S".into(),
                    key: "a".into(),
                    value: beehive_wire::to_vec(&42u64).unwrap(),
                },
                OldOp::Del {
                    dict: "S".into(),
                    key: "b".into(),
                },
            ],
        };
        assert_eq!(
            beehive_wire::to_vec(&j).unwrap(),
            beehive_wire::to_vec(&old).unwrap()
        );
    }

    #[test]
    fn a_journal_view_and_a_value_encode_like_their_owned_forms() {
        let mut s = BeeState::new();
        let mut tx = TxState::begin(&mut s);
        tx.put("S", "sw1", &(7u64, "edge".to_string())).unwrap();
        tx.del("S", "gone");
        let sp = Savepoint {
            undo_len: 0,
            redo_len: 0,
        };
        let ops = tx.journal_since(&sp).to_vec();
        assert_eq!(
            beehive_wire::to_vec(&JournalView(&ops)).unwrap(),
            beehive_wire::to_vec(&TxJournal { ops: ops.clone() }).unwrap()
        );
        let JournalOp::Put { value, .. } = &ops[0] else {
            panic!("a put first")
        };
        assert_eq!(
            *value,
            beehive_wire::to_vec(&(7u64, "edge".to_string())).unwrap()
        );
    }

    #[test]
    fn keys_may_be_borrowed_owned_or_shared() {
        let mut s = BeeState::new();
        let owned = "b".to_string();
        let mut tx = TxState::begin(&mut s);
        tx.put("S", "a", &1u32).unwrap();
        tx.put("S", &owned, &2u32).unwrap();
        tx.put("S", owned.clone(), &3u32).unwrap();
        tx.put_raw("S", Name::from("c"), vec![4u8]);
        tx.commit();
        let keys: Vec<&str> = s.dict("S").unwrap().keys().collect();
        assert_eq!(keys, ["a", "b", "c"]);
    }

    #[test]
    fn lent_logs_start_the_next_transaction_empty() {
        let mut s = BeeState::new();
        let mut tx = TxState::begin(&mut s);
        tx.put("S", "a", &1u32).unwrap();
        tx.put("S", "b", &1u32).unwrap();
        let sp = tx.savepoint();
        tx.clear_journal_since(&sp);
        let (_, logs) = tx.commit_keeping_logs();
        assert!(!logs.undo.is_empty());

        let mut tx = TxState::begin_with(&mut s, logs);
        assert!(tx.logs.undo.is_empty() && tx.logs.redo.is_empty());
        tx.put("S", "a", &2u32).unwrap();
        let j = tx.rollback();
        assert!(j.is_empty());
        assert_eq!(s.dict("S").unwrap().get::<u32>("a").unwrap(), Some(1));
        assert_eq!(s.dict("S").unwrap().get::<u32>("b").unwrap(), Some(1));
    }

    #[test]
    fn savepoint_rollback_unwinds_exactly_one_message() {
        let mut s = BeeState::new();
        s.dict_mut("S").put("a", &1u32).unwrap();
        let mut tx = TxState::begin(&mut s);

        // Message 1: succeeds.
        let sp1 = tx.savepoint();
        tx.put("S", "a", &10u32).unwrap();
        tx.put("S", "b", &20u32).unwrap();
        assert_eq!(tx.journal_since(&sp1).len(), 2);
        tx.clear_journal_since(&sp1);

        // Message 2: fails — rolled back, message 1's writes survive.
        let sp2 = tx.savepoint();
        tx.put("S", "a", &99u32).unwrap();
        tx.del("S", "b");
        tx.put("S", "c", &3u32).unwrap();
        tx.del("T", "ghost"); // created dict must be un-created
        tx.rollback_to(&sp2);

        // Message 3: succeeds.
        let sp3 = tx.savepoint();
        tx.put("S", "c", &30u32).unwrap();
        assert_eq!(tx.journal_since(&sp3).len(), 1);
        tx.clear_journal_since(&sp3);

        assert!(tx.commit().is_empty(), "every journal was cleared");
        assert_eq!(s.dict("S").unwrap().get::<u32>("a").unwrap(), Some(10));
        assert_eq!(s.dict("S").unwrap().get::<u32>("b").unwrap(), Some(20));
        assert_eq!(s.dict("S").unwrap().get::<u32>("c").unwrap(), Some(30));
        assert!(s.dict("T").is_none());
    }

    #[test]
    fn savepoint_era_records_fresh_undo_for_pre_savepoint_writes() {
        // A key written before a savepoint and again after must roll back to
        // its value at the savepoint, not its pre-transaction value.
        let mut s = BeeState::new();
        s.dict_mut("S").put("k", &1u32).unwrap();
        let mut tx = TxState::begin(&mut s);
        tx.put("S", "k", &2u32).unwrap();
        let sp = tx.savepoint();
        tx.put("S", "k", &3u32).unwrap();
        tx.put("S", "k", &4u32).unwrap(); // second write same era: no new undo
        tx.rollback_to(&sp);
        assert_eq!(tx.get::<u32>("S", "k").unwrap(), Some(2));
        tx.commit();
        assert_eq!(s.dict("S").unwrap().get::<u32>("k").unwrap(), Some(2));
    }

    #[test]
    fn del_creates_dict_like_old_commit_and_rollback_removes_it() {
        // Old engine: commit applied Del via dict_mut, creating an empty
        // dict. Snapshot bytes depend on this, so the quirk is preserved.
        let mut s = BeeState::new();
        let mut tx = TxState::begin(&mut s);
        tx.del("D", "nope");
        let j = tx.commit();
        assert_eq!(j.ops.len(), 1);
        assert!(s.dict("D").is_some());
        assert!(s.dict("D").unwrap().is_empty());

        // And a rolled-back delete leaves no trace.
        let mut s2 = BeeState::new();
        let mut tx2 = TxState::begin(&mut s2);
        tx2.del("D", "nope");
        tx2.rollback();
        assert!(s2.dict("D").is_none());
    }

    #[test]
    fn rollback_after_absorb_and_snapshot_restore() {
        // Gen stamps reset to 0 across snapshot/absorb; rollback must still
        // restore the exact pre-transaction contents.
        let mut donor = BeeState::new();
        donor.dict_mut("S").put("x", &5u32).unwrap();
        let mut s = BeeState::from_snapshot(&donor.snapshot().unwrap()).unwrap();
        let mut extra = BeeState::new();
        extra.dict_mut("S").put("y", &6u32).unwrap();
        s.absorb(extra);

        let before = s.clone();
        let mut tx = TxState::begin(&mut s);
        tx.put("S", "x", &50u32).unwrap();
        tx.del("S", "y");
        tx.put("S", "z", &7u32).unwrap();
        tx.rollback();
        assert_eq!(s, before);
    }
}

#[cfg(test)]
mod decoded_slot {
    //! The decoded slot beside each entry's bytes: which reads it saves and
    //! which writes empty it.

    use std::cell::Cell;

    use super::*;

    thread_local! {
        static DECODES: Cell<usize> = const { Cell::new(0) };
    }

    /// A value whose `Deserialize` counts its calls on this thread.
    #[derive(Debug, Clone, Default, PartialEq, Serialize)]
    struct Counted(u64);

    impl<'de> Deserialize<'de> for Counted {
        fn deserialize<D: Deserializer<'de>>(d: D) -> std::result::Result<Self, D::Error> {
            DECODES.with(|c| c.set(c.get() + 1));
            u64::deserialize(d).map(Counted)
        }
    }

    /// Decodes of [`Counted`] on this thread so far.
    fn decodes() -> usize {
        DECODES.with(Cell::get)
    }

    /// `S[k]` read through the slot, and how many decodes the read took.
    fn read(s: &mut BeeState) -> (Option<Counted>, usize) {
        let before = decodes();
        let v = TxState::begin(s).get_cached::<Counted>("S", "k").unwrap();
        (v, decodes() - before)
    }

    fn bytes(v: u64) -> Vec<u8> {
        beehive_wire::to_vec(&Counted(v)).unwrap()
    }

    /// A state whose `S[k]` holds `Counted(v)` in its bytes and its slot.
    fn cached(v: u64) -> BeeState {
        let mut s = BeeState::new();
        let mut tx = TxState::begin(&mut s);
        tx.put_cached("S", "k", &Counted(v)).unwrap();
        tx.commit();
        s
    }

    #[test]
    fn a_read_after_a_typed_write_or_a_decoding_read_does_not_decode() {
        let mut s = cached(1);
        assert_eq!(read(&mut s), (Some(Counted(1)), 0));

        let mut s = BeeState::new();
        s.dict_mut("S").put_raw("k", bytes(2));
        assert_eq!(read(&mut s), (Some(Counted(2)), 1));
        assert_eq!(read(&mut s), (Some(Counted(2)), 0));
        // The uncached reads still decode every time.
        let before = decodes();
        let tx = TxState::begin(&mut s);
        assert_eq!(tx.get::<Counted>("S", "k").unwrap(), Some(Counted(2)));
        assert_eq!(decodes() - before, 1);
    }

    #[test]
    fn a_read_as_another_type_decodes_from_the_bytes() {
        let mut s = BeeState::new();
        let mut tx = TxState::begin(&mut s);
        tx.put_cached("S", "k", &7u64).unwrap();
        tx.commit();
        // The slot holds a `u64`: a `Counted` read decodes, each time, and
        // leaves the `u64` where it is.
        assert_eq!(read(&mut s), (Some(Counted(7)), 1));
        assert_eq!(read(&mut s), (Some(Counted(7)), 1));
        let tx = TxState::begin(&mut s);
        assert_eq!(tx.get_cached::<u64>("S", "k").unwrap(), Some(7));
    }

    #[test]
    fn raw_writes_deletes_and_rollbacks_leave_no_stale_value() {
        // A raw write empties the slot.
        let mut s = cached(1);
        let mut tx = TxState::begin(&mut s);
        tx.put_raw("S", "k", bytes(2));
        tx.commit();
        assert_eq!(read(&mut s), (Some(Counted(2)), 1));

        // A delete takes the slot with the entry; re-creating the entry raw
        // does not bring it back.
        let mut s = cached(1);
        let mut tx = TxState::begin(&mut s);
        tx.del("S", "k");
        assert_eq!(tx.get_cached::<Counted>("S", "k").unwrap(), None);
        tx.put_raw("S", "k", bytes(3));
        tx.commit();
        assert_eq!(read(&mut s), (Some(Counted(3)), 1));

        // Rolling back a typed write restores the older slot with the older
        // bytes, and rolling back a delete restores both too.
        let mut s = cached(1);
        let mut tx = TxState::begin(&mut s);
        let sp = tx.savepoint();
        tx.put_cached("S", "k", &Counted(5)).unwrap();
        tx.rollback_to(&sp);
        tx.del("S", "k");
        tx.rollback();
        assert_eq!(read(&mut s), (Some(Counted(1)), 0));
    }

    #[test]
    fn replay_restore_and_absorb_leave_the_slot_empty() {
        // A replica replaying a journal decodes what the journal wrote.
        let mut replica = cached(1);
        let mut primary = BeeState::new();
        let mut tx = TxState::begin(&mut primary);
        tx.put_cached("S", "k", &Counted(2)).unwrap();
        tx.commit().replay(&mut replica);
        assert_eq!(read(&mut replica), (Some(Counted(2)), 1));

        // A restored snapshot decodes on its first read.
        let mut restored = BeeState::from_snapshot(&cached(3).snapshot().unwrap()).unwrap();
        assert_eq!(read(&mut restored), (Some(Counted(3)), 1));

        // An absorbed entry replaces the slot of the one it overwrites and
        // does not bring its own.
        let mut s = cached(1);
        assert_eq!(s.absorb(cached(4)), 1);
        assert_eq!(read(&mut s), (Some(Counted(4)), 1));
    }

    /// `S[k] += by` through [`TxState::update`]: the new value and how
    /// many decodes the update took.
    fn bump(tx: &mut TxState<'_>, key: &str, by: u64) -> (u64, usize) {
        let before = decodes();
        let v = tx
            .update("S", key, |v: &mut Counted| {
                v.0 += by;
                v.0
            })
            .unwrap();
        (v, decodes() - before)
    }

    #[test]
    fn an_update_mutates_the_decoded_value_and_a_read_after_it_does_not_decode() {
        // A slot holding the value: mutated where it is.
        let mut s = cached(1);
        let mut tx = TxState::begin(&mut s);
        assert_eq!(bump(&mut tx, "k", 1), (2, 0));
        assert_eq!(bump(&mut tx, "k", 1), (3, 0));
        tx.commit();
        assert_eq!(read(&mut s), (Some(Counted(3)), 0));

        // Bytes only, or a slot of another type: decoded once.
        let mut s = BeeState::new();
        s.dict_mut("S").put_raw("k", bytes(5));
        let mut tx = TxState::begin(&mut s);
        assert_eq!(bump(&mut tx, "k", 1), (6, 1));
        tx.put_cached("S", "k", &6u64).unwrap();
        assert_eq!(bump(&mut tx, "k", 1), (7, 1));
        tx.commit();
        assert_eq!(read(&mut s), (Some(Counted(7)), 0));

        // An absent key starts from the default.
        let mut s = BeeState::new();
        let mut tx = TxState::begin(&mut s);
        assert_eq!(bump(&mut tx, "k", 4), (4, 0));
        tx.commit();
        assert_eq!(read(&mut s), (Some(Counted(4)), 0));

        // A slot another state shares (a clone) is copied, not mutated.
        let mut s = cached(1);
        let mut copy = s.clone();
        let mut tx = TxState::begin(&mut s);
        assert_eq!(bump(&mut tx, "k", 1), (2, 0));
        tx.commit();
        assert_eq!(read(&mut copy), (Some(Counted(1)), 0));
        assert_eq!(read(&mut s), (Some(Counted(2)), 0));
    }

    #[test]
    fn rolling_back_an_update_restores_the_prior_value() {
        let mut s = cached(1);
        let mut tx = TxState::begin(&mut s);
        let sp = tx.savepoint();
        bump(&mut tx, "k", 8);
        bump(&mut tx, "j", 8);
        tx.rollback_to(&sp);
        assert_eq!(tx.get::<Counted>("S", "j").unwrap(), None);
        tx.commit();
        // The undo record kept the prior bytes, with an empty slot.
        assert_eq!(read(&mut s), (Some(Counted(1)), 1));

        let mut s = cached(1);
        let mut tx = TxState::begin(&mut s);
        bump(&mut tx, "k", 8);
        tx.rollback();
        assert_eq!(read(&mut s), (Some(Counted(1)), 1));
    }

    #[test]
    fn an_update_writes_what_a_get_and_a_put_write() {
        let mut plain = cached(1);
        let mut tx = TxState::begin(&mut plain);
        for (key, by) in [("k", 2), ("j", 3), ("k", 4)] {
            let mut v: Counted = tx.get_cached("S", key).unwrap().unwrap_or_default();
            v.0 += by;
            tx.put_cached("S", key, &v).unwrap();
        }
        let plain_journal = beehive_wire::to_vec(&tx.commit()).unwrap();

        let mut updated = cached(1);
        let mut tx = TxState::begin(&mut updated);
        for (key, by) in [("k", 2), ("j", 3), ("k", 4)] {
            bump(&mut tx, key, by);
        }
        let updated_journal = beehive_wire::to_vec(&tx.commit()).unwrap();

        assert_eq!(updated_journal, plain_journal);
        assert_eq!(updated.snapshot().unwrap(), plain.snapshot().unwrap());
        assert_eq!(updated, plain);
    }

    #[test]
    fn snapshots_and_journals_do_not_depend_on_the_slot() {
        let mut plain = BeeState::new();
        let mut tx = TxState::begin(&mut plain);
        tx.put("S", "k", &Counted(1)).unwrap();
        tx.put("S", "j", &Counted(2)).unwrap();
        let plain_journal = beehive_wire::to_vec(&tx.commit()).unwrap();

        let mut warm = BeeState::new();
        let mut tx = TxState::begin(&mut warm);
        tx.put_cached("S", "k", &Counted(1)).unwrap();
        tx.put_cached("S", "j", &Counted(2)).unwrap();
        assert_eq!(
            tx.get_cached::<Counted>("S", "j").unwrap(),
            Some(Counted(2))
        );
        let warm_journal = beehive_wire::to_vec(&tx.commit()).unwrap();
        assert_eq!(read(&mut warm).0, Some(Counted(1)));

        assert_eq!(warm_journal, plain_journal);
        assert_eq!(warm.snapshot().unwrap(), plain.snapshot().unwrap());
        assert_eq!(warm, plain);
    }
}

#[cfg(test)]
mod cow_equivalence {
    //! Property tests: the COW engine is observationally equivalent to the
    //! clone-based engine it replaced. `RefTx` below is a faithful port of
    //! the old overlay-buffered implementation (including its quirks: every
    //! op journaled in order, `dict_mut` creation on committed deletes).

    use std::collections::{BTreeMap, HashMap};

    use beehive_raft::prop::{for_all, Gen};

    use super::*;

    /// The old engine's state: dict name → (key → value), where a dict may
    /// exist and be empty (the committed-delete quirk).
    #[derive(Debug, Clone, Default, PartialEq)]
    struct RefState {
        dicts: BTreeMap<String, BTreeMap<String, Vec<u8>>>,
    }

    #[derive(Debug, Clone, PartialEq)]
    enum RefOp {
        Put(Vec<u8>),
        Del,
    }

    /// Port of the pre-COW `TxState`: overlay-buffered reads, ops map +
    /// ordered journal, commit applies in journal order via `dict_mut`.
    #[derive(Debug, Default)]
    struct RefTx {
        ops: HashMap<(String, String), RefOp>,
        journal: Vec<(String, String, RefOp)>,
    }

    impl RefTx {
        fn get_raw(&self, base: &RefState, dict: &str, key: &str) -> Option<Vec<u8>> {
            match self.ops.get(&(dict.to_string(), key.to_string())) {
                Some(RefOp::Put(v)) => Some(v.clone()),
                Some(RefOp::Del) => None,
                None => base.dicts.get(dict).and_then(|d| d.get(key)).cloned(),
            }
        }

        fn put_raw(&mut self, dict: &str, key: &str, value: Vec<u8>) {
            self.ops.insert(
                (dict.to_string(), key.to_string()),
                RefOp::Put(value.clone()),
            );
            self.journal
                .push((dict.to_string(), key.to_string(), RefOp::Put(value)));
        }

        fn del(&mut self, dict: &str, key: &str) {
            self.ops
                .insert((dict.to_string(), key.to_string()), RefOp::Del);
            self.journal
                .push((dict.to_string(), key.to_string(), RefOp::Del));
        }

        fn contains(&self, base: &RefState, dict: &str, key: &str) -> bool {
            match self.ops.get(&(dict.to_string(), key.to_string())) {
                Some(RefOp::Put(_)) => true,
                Some(RefOp::Del) => false,
                None => base.dicts.get(dict).is_some_and(|d| d.contains_key(key)),
            }
        }

        fn keys(&self, base: &RefState, dict: &str) -> Vec<String> {
            let mut keys: std::collections::BTreeSet<String> = base
                .dicts
                .get(dict)
                .map(|d| d.keys().cloned().collect())
                .unwrap_or_default();
            for ((d, k), op) in &self.ops {
                if d == dict {
                    match op {
                        RefOp::Put(_) => {
                            keys.insert(k.clone());
                        }
                        RefOp::Del => {
                            keys.remove(k);
                        }
                    }
                }
            }
            keys.into_iter().collect()
        }

        fn commit(self, base: &mut RefState) -> Vec<(String, String, RefOp)> {
            for (dict, key, op) in &self.journal {
                let d = base.dicts.entry(dict.clone()).or_default();
                match op {
                    RefOp::Put(v) => {
                        d.insert(key.clone(), v.clone());
                    }
                    RefOp::Del => {
                        d.remove(key);
                    }
                }
            }
            self.journal
        }
    }

    /// Extracts the observable contents of a [`BeeState`] for comparison,
    /// including empty dicts (they are visible in snapshots and audits).
    fn observe(s: &BeeState) -> RefState {
        let mut out = RefState::default();
        for name in s.dict_names() {
            let d = s.dict(name).unwrap();
            out.dicts.insert(
                name.to_string(),
                d.iter().map(|(k, v)| (k.to_string(), v.to_vec())).collect(),
            );
        }
        out
    }

    fn journal_to_ref(j: &TxJournal) -> Vec<(String, String, RefOp)> {
        j.ops
            .iter()
            .map(|op| match op {
                JournalOp::Put { dict, key, value } => (
                    dict.to_string(),
                    key.to_string(),
                    RefOp::Put(value.to_vec()),
                ),
                JournalOp::Del { dict, key } => (dict.to_string(), key.to_string(), RefOp::Del),
            })
            .collect()
    }

    #[derive(Debug, Clone)]
    enum Op {
        Put(u8, u8, Vec<u8>),
        Del(u8, u8),
        Get(u8, u8),
        Contains(u8, u8),
        Keys(u8),
    }

    /// A value of up to 15 bytes.
    fn value(g: &mut Gen) -> Vec<u8> {
        g.vec(0..16, |g| g.range(..))
    }

    /// An entry of the state a case starts from: dict, key, value.
    fn seed_entry(g: &mut Gen) -> (u8, u8, Vec<u8>) {
        (g.range(0..4), g.range(0..8), value(g))
    }

    fn arb_op(g: &mut Gen) -> Op {
        let (d, k) = (g.range(0..4), g.range(0..8));
        match g.range(0..5u8) {
            0 => Op::Put(d, k, value(g)),
            1 => Op::Del(d, k),
            2 => Op::Get(d, k),
            3 => Op::Contains(d, k),
            _ => Op::Keys(d),
        }
    }

    fn seed_states(seed: &[(u8, u8, Vec<u8>)]) -> (BeeState, RefState) {
        let mut s = BeeState::new();
        let mut r = RefState::default();
        for (d, k, v) in seed {
            let (dn, kn) = (format!("d{d}"), format!("k{k}"));
            s.dict_mut(&dn).put_raw(kn.clone(), v.clone());
            r.dicts.entry(dn).or_default().insert(kn, v.clone());
        }
        (s, r)
    }

    /// Cases per property.
    const CASES: u64 = 256;

    /// Random op sequences + commit/rollback behave exactly like the
    /// clone-based engine: same read results, same journal, same final
    /// state.
    #[test]
    fn cow_engine_matches_clone_engine() {
        for_all(
            CASES,
            |g| (g.vec(0..16, seed_entry), g.vec(0..48, arb_op), g.bool()),
            |(seed, ops, commit)| {
                let (mut s, mut r) = seed_states(&seed);
                let r_before = r.clone();
                let mut tx = TxState::begin(&mut s);
                let mut rtx = RefTx::default();

                for op in &ops {
                    match op {
                        Op::Put(d, k, v) => {
                            let (dn, kn) = (format!("d{d}"), format!("k{k}"));
                            tx.put_raw(&dn, kn.clone(), v.clone());
                            rtx.put_raw(&dn, &kn, v.clone());
                        }
                        Op::Del(d, k) => {
                            let (dn, kn) = (format!("d{d}"), format!("k{k}"));
                            tx.del(&dn, &kn);
                            rtx.del(&dn, &kn);
                        }
                        Op::Get(d, k) => {
                            let (dn, kn) = (format!("d{d}"), format!("k{k}"));
                            let got = tx.get_raw(&dn, &kn).map(|v| v.to_vec());
                            assert_eq!(got, rtx.get_raw(&r, &dn, &kn));
                        }
                        Op::Contains(d, k) => {
                            let (dn, kn) = (format!("d{d}"), format!("k{k}"));
                            assert_eq!(tx.contains(&dn, &kn), rtx.contains(&r, &dn, &kn));
                        }
                        Op::Keys(d) => {
                            let dn = format!("d{d}");
                            assert_eq!(tx.keys(&dn), rtx.keys(&r, &dn));
                        }
                    }
                }

                if commit {
                    let j = tx.commit();
                    let rj = rtx.commit(&mut r);
                    assert_eq!(journal_to_ref(&j), rj);
                    assert_eq!(observe(&s), r);
                } else {
                    let j = tx.rollback();
                    assert!(j.is_empty());
                    assert_eq!(observe(&s), r_before);
                }
            },
        );
    }

    /// Savepoint semantics: a batch of messages where each either takes
    /// its journal or rolls back must (a) leave the base equal to a
    /// fresh replica built by replaying only the taken journals, and
    /// (b) leave no trace of rolled-back messages.
    #[test]
    fn savepoints_match_replayed_journals() {
        for_all(
            CASES,
            |g| {
                (
                    g.vec(0..8, seed_entry),
                    g.vec(1..8, |g| (g.vec(1..12, arb_op), g.bool())),
                )
            },
            |(seed, batch)| {
                let (mut s, _) = seed_states(&seed);
                let mut replica = s.clone();
                let mut journals: Vec<TxJournal> = Vec::new();

                let mut tx = TxState::begin(&mut s);
                for (ops, ok) in &batch {
                    let sp = tx.savepoint();
                    for op in ops {
                        match op {
                            Op::Put(d, k, v) => {
                                tx.put_raw(&format!("d{d}"), format!("k{k}"), v.clone())
                            }
                            Op::Del(d, k) => tx.del(&format!("d{d}"), &format!("k{k}")),
                            Op::Get(d, k) => {
                                let _ = tx.get_raw(&format!("d{d}"), &format!("k{k}"));
                            }
                            Op::Contains(d, k) => {
                                let _ = tx.contains(&format!("d{d}"), &format!("k{k}"));
                            }
                            Op::Keys(d) => {
                                let _ = tx.keys(&format!("d{d}"));
                            }
                        }
                    }
                    if *ok {
                        journals.push(TxJournal {
                            ops: tx.journal_since(&sp).to_vec(),
                        });
                        tx.clear_journal_since(&sp);
                    } else {
                        tx.rollback_to(&sp);
                    }
                }
                let rest = tx.commit();
                assert!(rest.is_empty());

                for j in &journals {
                    j.replay(&mut replica);
                }
                // Replay applies Put/Del via dict_mut exactly like a committed
                // journal on a replica; primary and replica must agree on
                // observable dict contents. (Empty dicts created by rolled-back
                // deletes were un-created on the primary; replicas never saw
                // them at all.)
                assert_eq!(observe(&s), observe(&replica));
            },
        );
    }
}
