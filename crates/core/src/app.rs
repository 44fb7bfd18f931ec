//! The programming abstraction: applications as sets of stateful functions
//! triggered by asynchronous messages (paper §2).
//!
//! An application declares, per message type, how the message **maps** to
//! state cells and what the **rcv** function does. The map declaration is
//! data ([`MapSpec`]), which is exactly what lets the platform infer the
//! paper's "how applications maintain their state": whole-dictionary access
//! is statically visible, so dictionaries become *monolithic* and the
//! feedback system can point at the handler responsible.
//! An entry handler ([`AppBuilder::with`]) declares its one entry as data
//! too, and reads and writes it through [`RcvCtx::entry`] without naming
//! the cell again.

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use crate::cell::{Cell, Mapped};
use crate::control::ControlMsg;
use crate::error::{Error, Result};
use crate::executor::colony_holds;
use crate::id::{AppName, BeeId, HiveId, Name};
use crate::message::{cast, Dst, Envelope, Message, MessageRegistry, Source, TypedMessage};
use crate::state::TxState;
use crate::trace::TraceContext;

/// Outcome of a rcv function. An `Err` rolls back the state transaction and
/// discards emitted messages; its text is the failure's detail.
pub type HandlerResult = Result<()>;

/// How a handler maps messages to cells.
#[allow(clippy::type_complexity)]
pub enum MapSpec {
    /// One entry per message (`with dict[key(msg)]`), which the handler
    /// reaches through [`RcvCtx::entry`] and its siblings.
    Entry {
        /// The entry's dictionary.
        dict: String,
        /// Formats the entry's key from the message.
        key: Box<dyn Fn(&dyn Message) -> String + Send>,
    },
    /// Compute per-message cells from the payload by hand.
    Custom(Box<dyn Fn(&dyn Message) -> Mapped + Send>),
    /// The handler needs these dictionaries *in their entirety*
    /// (`with S and T`). Declaring this makes every listed dictionary
    /// monolithic for the whole application.
    WholeDicts(Vec<String>),
    /// Process on a pinned, hive-local singleton bee (drivers, per-hive
    /// platform functions).
    LocalSingleton,
    /// Deliver to every existing local bee of the application
    /// (`foreach` clauses, e.g. periodic timers iterating local keys).
    LocalBroadcast,
}

impl std::fmt::Debug for MapSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapSpec::Entry { dict, .. } => write!(f, "Entry({dict:?}[..])"),
            MapSpec::Custom(_) => write!(f, "Custom(..)"),
            MapSpec::WholeDicts(d) => write!(f, "WholeDicts({d:?})"),
            MapSpec::LocalSingleton => write!(f, "LocalSingleton"),
            MapSpec::LocalBroadcast => write!(f, "LocalBroadcast"),
        }
    }
}

type RcvFn = Box<dyn Fn(&dyn Message, &mut RcvCtx<'_>) -> HandlerResult + Send>;

/// One `on <Message>` clause: a map declaration plus a rcv function.
pub struct HandlerDef {
    /// Human-readable handler name (feedback reports).
    pub name: String,
    /// Wire name of the message type this handler is triggered by.
    pub msg_type: &'static str,
    /// The map declaration.
    pub map: MapSpec,
    rcv: RcvFn,
}

impl HandlerDef {
    /// Runs the rcv function.
    pub fn rcv(&self, msg: &dyn Message, ctx: &mut RcvCtx<'_>) -> HandlerResult {
        (self.rcv)(msg, ctx)
    }
}

/// A control application.
pub struct App {
    name: Name,
    handlers: Vec<HandlerDef>,
    /// msg type → handler indices.
    by_type: HashMap<&'static str, Vec<u16>>,
    monolithic: HashSet<String>,
    registrations: Vec<fn(&mut MessageRegistry)>,
}

impl App {
    /// Starts building an application.
    pub fn builder(name: impl Into<AppName>) -> AppBuilder {
        AppBuilder {
            name: name.into(),
            handlers: Vec::new(),
            registrations: Vec::new(),
        }
    }

    /// The application's name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// All handlers.
    pub fn handlers(&self) -> &[HandlerDef] {
        &self.handlers
    }

    /// The handler at `idx`.
    pub fn handler(&self, idx: u16) -> Option<&HandlerDef> {
        self.handlers.get(idx as usize)
    }

    /// Indices of handlers triggered by `msg_type`.
    pub fn handlers_for(&self, msg_type: &str) -> &[u16] {
        self.by_type.get(msg_type).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `dict` is monolithic (some handler maps it whole).
    pub fn is_monolithic(&self, dict: &str) -> bool {
        self.monolithic.contains(dict)
    }

    /// Evaluates handler `idx`'s map for `msg`, canonicalized against the
    /// application's monolithic dictionaries.
    pub fn map(&self, idx: u16, msg: &dyn Message) -> Mapped {
        let h = &self.handlers[idx as usize];
        let mapped = match &h.map {
            MapSpec::Entry { dict, key } => Mapped::cell(dict.as_str(), key(msg)),
            MapSpec::Custom(f) => f(msg),
            MapSpec::WholeDicts(dicts) => Mapped::Cells(dicts.iter().map(Cell::whole).collect()),
            MapSpec::LocalSingleton => Mapped::LocalSingleton,
            MapSpec::LocalBroadcast => Mapped::LocalBroadcast,
        };
        mapped.canonicalize(|d| self.is_monolithic(d))
    }

    /// Registers this app's message decoders into a hive's registry.
    pub fn register_messages(&self, registry: &mut MessageRegistry) {
        for f in &self.registrations {
            f(registry);
        }
    }

    /// Handlers that statically declare whole-dict access, per dictionary —
    /// the raw material for design feedback.
    pub fn whole_dict_handlers(&self) -> BTreeMap<String, Vec<String>> {
        let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for h in &self.handlers {
            if let MapSpec::WholeDicts(dicts) = &h.map {
                for d in dicts {
                    out.entry(d.clone()).or_default().push(h.name.clone());
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("App")
            .field("name", &self.name)
            .field("handlers", &self.handlers.len())
            .field("monolithic", &self.monolithic)
            .finish()
    }
}

/// Fluent constructor for [`App`]s.
pub struct AppBuilder {
    name: AppName,
    handlers: Vec<HandlerDef>,
    registrations: Vec<fn(&mut MessageRegistry)>,
}

impl AppBuilder {
    fn push<M: TypedMessage>(
        mut self,
        name: Option<String>,
        map: MapSpec,
        rcv: impl Fn(&M, &mut RcvCtx<'_>) -> HandlerResult + Send + 'static,
    ) -> Self {
        let msg_type = M::wire_name();
        let name = name.unwrap_or_else(|| {
            let short = msg_type.rsplit("::").next().unwrap_or(msg_type);
            format!("on<{short}>#{}", self.handlers.len())
        });
        self.handlers.push(HandlerDef {
            name,
            msg_type,
            map,
            rcv: Box::new(move |msg, ctx| {
                let typed = cast::<M>(msg).expect("handler invoked with wrong message type");
                rcv(typed, ctx)
            }),
        });
        self.registrations.push(|r| r.register::<M>());
        self
    }

    /// `on M: with dict[key(msg)]` — the one entry each message needs: the
    /// platform maps the message to that cell, and the handler reaches it
    /// through [`RcvCtx::entry`] and its siblings.
    pub fn with<M: TypedMessage>(
        self,
        name: impl Into<String>,
        dict: impl Into<String>,
        key: impl Fn(&M) -> String + Send + 'static,
        rcv: impl Fn(&M, &mut RcvCtx<'_>) -> HandlerResult + Send + 'static,
    ) -> Self {
        let key = Box::new(move |msg: &dyn Message| {
            key(cast::<M>(msg).expect("key invoked with wrong message type"))
        });
        let map = MapSpec::Entry {
            dict: dict.into(),
            key,
        };
        self.push::<M>(Some(name.into()), map, rcv)
    }

    /// `on M: with <cells from map(msg)>` — per-message cells computed by
    /// hand, for maps that are not one entry ([`AppBuilder::with`]).
    pub fn handle<M: TypedMessage>(
        self,
        map: impl Fn(&M) -> Mapped + Send + 'static,
        rcv: impl Fn(&M, &mut RcvCtx<'_>) -> HandlerResult + Send + 'static,
    ) -> Self {
        let map = Box::new(move |msg: &dyn Message| {
            map(cast::<M>(msg).expect("map invoked with wrong message type"))
        });
        self.push::<M>(None, MapSpec::Custom(map), rcv)
    }

    /// `on M: with D1 and D2 (whole dictionaries)` — marks every listed
    /// dictionary monolithic for the whole app.
    pub fn handle_whole<M: TypedMessage>(
        self,
        name: impl Into<String>,
        dicts: &[&str],
        rcv: impl Fn(&M, &mut RcvCtx<'_>) -> HandlerResult + Send + 'static,
    ) -> Self {
        let map = MapSpec::WholeDicts(dicts.iter().map(|s| s.to_string()).collect());
        self.push::<M>(Some(name.into()), map, rcv)
    }

    /// `on M` handled by a pinned hive-local singleton bee.
    pub fn handle_local<M: TypedMessage>(
        self,
        name: impl Into<String>,
        rcv: impl Fn(&M, &mut RcvCtx<'_>) -> HandlerResult + Send + 'static,
    ) -> Self {
        self.push::<M>(Some(name.into()), MapSpec::LocalSingleton, rcv)
    }

    /// `on M: foreach local bee` — e.g. periodic ticks iterating local keys.
    pub fn handle_broadcast<M: TypedMessage>(
        self,
        name: impl Into<String>,
        rcv: impl Fn(&M, &mut RcvCtx<'_>) -> HandlerResult + Send + 'static,
    ) -> Self {
        self.push::<M>(Some(name.into()), MapSpec::LocalBroadcast, rcv)
    }

    /// Finalizes the application.
    pub fn build(self) -> App {
        let mut by_type: HashMap<&'static str, Vec<u16>> = HashMap::new();
        let mut monolithic = HashSet::new();
        for (i, h) in self.handlers.iter().enumerate() {
            by_type.entry(h.msg_type).or_default().push(i as u16);
            if let MapSpec::WholeDicts(dicts) = &h.map {
                monolithic.extend(dicts.iter().cloned());
            }
        }
        App {
            name: self.name.into(),
            handlers: self.handlers,
            by_type,
            monolithic,
            registrations: self.registrations,
        }
    }
}

/// Everything a rcv function can do: transactional state access, emitting
/// messages, and platform operations. Created by the hive per invocation.
///
/// A handler touches only its bee's colony. On the first access outside
/// it, the message is rolled back whatever the handler then returns, and
/// re-mapped with the touched cell added before it runs again.
pub struct RcvCtx<'a> {
    pub(crate) hive: HiveId,
    pub(crate) app: Name,
    pub(crate) bee: BeeId,
    pub(crate) src: Source,
    pub(crate) now_ms: u64,
    pub(crate) trace: TraceContext,
    pub(crate) deliveries: u32,
    pub(crate) tx: TxState<'a>,
    /// `None` for a pinned bee, which may touch any cell.
    pub(crate) colony: Option<&'a BTreeSet<Cell>>,
    pub(crate) unmapped: OnceCell<Cell>,
    pub(crate) declared: DeclaredEntry<'a>,
    pub(crate) outbox: Vec<Envelope>,
    pub(crate) control_out: Vec<(HiveId, ControlMsg)>,
    pub(crate) retire: bool,
}

/// The entry a handler declared with [`AppBuilder::with`], for the message
/// it runs; `key` is formatted on first use.
pub(crate) struct DeclaredEntry<'a> {
    pub(crate) map: &'a MapSpec,
    pub(crate) msg: &'a dyn Message,
    pub(crate) key: OnceCell<String>,
}

impl<'a> DeclaredEntry<'a> {
    /// The entry's `(dict, key)`; an error for a handler that declares none.
    /// Inlined across crates: it runs on every entry use, in the apps' own
    /// instances of the generic `RcvCtx::*_entry` methods.
    #[inline]
    fn cell(&self) -> Result<(&'a str, &str)> {
        match self.map {
            MapSpec::Entry { dict, key } => Ok((dict, self.key.get_or_init(|| key(self.msg)))),
            other => Err(format!("the handler declares no entry: its map is {other:?}").into()),
        }
    }
}

impl RcvCtx<'_> {
    /// The hive this invocation runs on.
    pub fn hive(&self) -> HiveId {
        self.hive
    }

    /// The bee executing this invocation.
    pub fn bee(&self) -> BeeId {
        self.bee
    }

    /// The application's name.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// The source of the message being processed.
    pub fn src(&self) -> Source {
        self.src
    }

    /// Current platform time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// The causal trace context of the message being processed. Emitted
    /// messages automatically become children of this span.
    pub fn trace(&self) -> TraceContext {
        self.trace
    }

    /// How many times this message has already failed and been redelivered.
    /// 0 on the first attempt. Handlers can use this to change behavior on
    /// retry (e.g. degrade gracefully before the message dead-letters).
    pub fn deliveries(&self) -> u32 {
        self.deliveries
    }

    // ----- state (transactional) -----

    /// `Ok` when the bee may touch `dict[key]`; the first refusal is kept
    /// for the re-map. Allocates only on a refusal.
    fn check(&self, dict: &str, key: &str) -> Result<()> {
        if self.colony.is_none_or(|c| colony_holds(c, dict, key)) {
            return Ok(());
        }
        let cell = Cell {
            dict: dict.to_string(),
            key: key.to_string(),
        };
        let _ = self.unmapped.set(cell.clone());
        Err(Error::Unmapped(cell))
    }

    /// Typed read of `dict[key]` through the transaction;
    /// [`Error::Unmapped`] outside the bee's colony.
    ///
    /// The entry keeps the last value a typed read or write had in hand,
    /// and a read as the same `T` returns a clone of it instead of decoding
    /// the bytes ([`TxState::get_cached`]). So `T` must round-trip through
    /// the codec: decoding what `T` encodes must give back an equal value.
    /// A `#[serde(skip)]` field or a lossy hand-written serde impl would
    /// read differently here than on a replica or after a migration.
    pub fn get<T>(&self, dict: &str, key: &str) -> Result<Option<T>>
    where
        T: serde::de::DeserializeOwned + Clone + Send + Sync + 'static,
    {
        self.check(dict, key)?;
        self.tx.get_cached(dict, key)
    }

    /// Typed buffered write of `dict[key]`; [`Error::Unmapped`], writing
    /// nothing, outside the bee's colony.
    ///
    /// The bytes are encoded as ever; a clone of `value` is kept beside
    /// them for the next [`RcvCtx::get`], which is why `T` must round-trip
    /// through the codec (see there).
    pub fn put<T>(&mut self, dict: &str, key: impl AsRef<str> + Into<Name>, value: &T) -> Result<()>
    where
        T: serde::Serialize + Clone + Send + Sync + 'static,
    {
        self.check(dict, key.as_ref())?;
        self.tx.put_cached(dict, key, value)
    }

    /// Typed read-modify-write of `dict[key]`: `f` mutates the value in
    /// place (`T::default()` when the key is absent) and its result is
    /// returned; [`Error::Unmapped`], touching nothing, outside the bee's
    /// colony.
    ///
    /// Writes what [`RcvCtx::get`] then [`RcvCtx::put`] would, without
    /// their two copies of the value: an entry kept decoded is mutated
    /// where it is ([`TxState::update`]). `T` must round-trip through the
    /// codec (see [`RcvCtx::get`]).
    pub fn update<T, R>(
        &mut self,
        dict: &str,
        key: impl AsRef<str> + Into<Name>,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R>
    where
        T: serde::Serialize + serde::de::DeserializeOwned + Default + Clone + Send + Sync + 'static,
    {
        self.check(dict, key.as_ref())?;
        self.tx.update(dict, key, f)
    }

    /// [`RcvCtx::get`] of the entry the handler declared with
    /// [`AppBuilder::with`]; an error for a handler that declares none.
    pub fn entry<T>(&self) -> Result<Option<T>>
    where
        T: serde::de::DeserializeOwned + Clone + Send + Sync + 'static,
    {
        let (dict, key) = self.declared.cell()?;
        self.get(dict, key)
    }

    /// [`RcvCtx::put`] of the declared entry (see [`RcvCtx::entry`]).
    pub fn put_entry<T>(&mut self, value: &T) -> Result<()>
    where
        T: serde::Serialize + Clone + Send + Sync + 'static,
    {
        let (dict, key) = self.declared.cell()?;
        self.check(dict, key)?;
        self.tx.put_cached(dict, key, value)
    }

    /// [`RcvCtx::update`] of the declared entry (see [`RcvCtx::entry`]).
    pub fn update_entry<T, R>(&mut self, f: impl FnOnce(&mut T) -> R) -> Result<R>
    where
        T: serde::Serialize + serde::de::DeserializeOwned + Default + Clone + Send + Sync + 'static,
    {
        let (dict, key) = self.declared.cell()?;
        self.check(dict, key)?;
        self.tx.update(dict, key, f)
    }

    /// [`RcvCtx::del`] of the declared entry (see [`RcvCtx::entry`]).
    pub fn del_entry(&mut self) -> Result<()> {
        let (dict, key) = self.declared.cell()?;
        if self.check(dict, key).is_ok() {
            self.tx.del(dict, key)
        }
        Ok(())
    }

    /// Buffered delete of `dict[key]`. Outside the bee's colony it deletes
    /// nothing and re-maps the message as [`Error::Unmapped`] would.
    pub fn del(&mut self, dict: &str, key: &str) {
        if self.check(dict, key).is_ok() {
            self.tx.del(dict, key)
        }
    }

    /// Whether `dict[key]` is visible. Outside the bee's colony it answers
    /// `false` and re-maps the message as [`Error::Unmapped`] would.
    pub fn contains(&self, dict: &str, key: &str) -> bool {
        self.check(dict, key).is_ok() && self.tx.contains(dict, key)
    }

    /// Keys of `dict` owned by this bee (through the transaction overlay).
    /// This is the `foreach` iteration surface: a bee sees only its colony.
    pub fn keys(&self, dict: &str) -> Vec<String> {
        self.tx.keys(dict)
    }

    // ----- messaging -----

    /// Emits a message to the whole control plane: every application whose
    /// handlers are triggered by this type will map and process it.
    pub fn emit<M: Message>(&mut self, msg: M) {
        self.outbox.push(Envelope {
            msg: Arc::new(msg),
            src: Source::Bee {
                bee: self.bee,
                hive: self.hive,
            },
            dst: Dst::Broadcast,
            trace: self.trace.child(self.hive),
            deliveries: 0,
        });
    }

    // ----- platform operations -----

    /// Orders a live migration of `bee` (of app `app`, currently on
    /// `current`) to hive `to`. Used by the placement optimizer; available to
    /// applications implementing custom optimization strategies (paper §3:
    /// "it is straightforward to implement other optimization strategies").
    pub fn order_migration(
        &mut self,
        app: impl Into<AppName>,
        bee: BeeId,
        current: HiveId,
        to: HiveId,
    ) {
        self.control_out.push((
            current,
            ControlMsg::RequestMigration {
                app: app.into(),
                bee,
                to,
            },
        ));
    }

    /// Retires this bee once the current transaction commits **and** its
    /// state is empty: the colony is deleted from the registry and the bee
    /// is garbage-collected. Use after deleting the last entry of a
    /// fine-grained cell (e.g. a RIB prefix withdrawal) so empty colonies
    /// don't accumulate. A retire request on a bee with remaining state is
    /// ignored. Pinned (local singleton) bees never retire.
    pub fn retire(&mut self) {
        self.retire = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct MsgA {
        key: String,
    }
    crate::impl_message!(MsgA);

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct MsgB;
    crate::impl_message!(MsgB);

    fn sample_app() -> App {
        App::builder("test")
            .handle::<MsgA>(|m| Mapped::cell("S", &m.key), |_m, _ctx| Ok(()))
            .handle_whole::<MsgB>("route", &["S", "T"], |_m, _ctx| Ok(()))
            .handle_broadcast::<MsgB>("query", |_m, _ctx| Ok(()))
            .build()
    }

    #[test]
    fn builder_indexes_handlers_by_type() {
        let app = sample_app();
        assert_eq!(app.handlers_for(MsgA::wire_name()).len(), 1);
        assert_eq!(app.handlers_for(MsgB::wire_name()).len(), 2);
        assert!(app.handlers_for("unknown").is_empty());
    }

    #[test]
    fn whole_dict_declaration_makes_dict_monolithic() {
        let app = sample_app();
        assert!(app.is_monolithic("S"));
        assert!(app.is_monolithic("T"));
        assert!(!app.is_monolithic("U"));
    }

    #[test]
    fn per_key_maps_canonicalize_to_whole_when_monolithic() {
        let app = sample_app();
        let idx = app.handlers_for(MsgA::wire_name())[0];
        let mapped = app.map(idx, &MsgA { key: "sw1".into() });
        assert_eq!(mapped, Mapped::Cells(vec![Cell::whole("S")]));
    }

    #[test]
    fn per_key_maps_stay_per_key_without_monolithic_declaration() {
        let app = App::builder("clean")
            .handle::<MsgA>(|m| Mapped::cell("S", &m.key), |_m, _ctx| Ok(()))
            .with::<MsgA>("Entry", "S", |m| m.key.clone(), |_m, _ctx| Ok(()))
            .build();
        for &idx in app.handlers_for(MsgA::wire_name()) {
            let mapped = app.map(idx, &MsgA { key: "sw1".into() });
            assert_eq!(mapped, Mapped::Cells(vec![Cell::new("S", "sw1")]));
        }
    }

    #[test]
    fn whole_dict_handlers_reported_for_feedback() {
        let app = sample_app();
        let report = app.whole_dict_handlers();
        assert_eq!(report["S"], vec!["route".to_string()]);
        assert_eq!(report["T"], vec!["route".to_string()]);
    }

    #[test]
    fn map_evaluates_specs() {
        let app = sample_app();
        let b_handlers = app.handlers_for(MsgB::wire_name());
        assert_eq!(
            app.map(b_handlers[0], &MsgB),
            Mapped::Cells(vec![Cell::whole("S"), Cell::whole("T")])
        );
        assert_eq!(app.map(b_handlers[1], &MsgB), Mapped::LocalBroadcast);
    }

    #[test]
    fn app_registers_its_message_types() {
        let app = sample_app();
        let mut reg = MessageRegistry::new();
        app.register_messages(&mut reg);
        assert!(reg.knows(MsgA::wire_name()));
        assert!(reg.knows(MsgB::wire_name()));
    }
}
