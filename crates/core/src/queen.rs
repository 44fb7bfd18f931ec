//! The queen: per-application, per-hive management of local bees — their
//! state, mailboxes, circuit breakers, lifecycle (creation, merge,
//! migration) and the shipped state waiting for the registry to place it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use crate::cell::Cell;
use crate::events::{EventJournal, EventKind};
use crate::id::{AppName, BeeId, HiveId};
use crate::message::Envelope;
use crate::state::BeeState;
use crate::tally::TallyLink;

/// Why a bee created by the rendezvous exists (its spawn event's detail).
const RECEIVER: &str = "created to receive shipped state";

/// Lifecycle of a local bee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BeeStatus {
    /// Processing messages normally.
    Active,
    /// Waiting for shipped state before it runs (the state must be complete
    /// before the next message is processed): its own, ahead of an inbound
    /// migration, or merged-away losers' (the rendezvous, `Queen::expect`).
    Awaiting {
        /// The shipped bees whose state has not arrived yet.
        from: BTreeSet<BeeId>,
    },
    /// Migrating away; the mailbox buffers until the registry mirror places
    /// the bee on another hive, then everything is forwarded there.
    MigratingOut {
        /// Destination hive.
        to: HiveId,
    },
}

impl std::fmt::Display for BeeStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BeeStatus::Active => write!(f, "Active"),
            BeeStatus::Awaiting { from } => {
                let from: Vec<String> = from.iter().map(BeeId::to_string).collect();
                write!(f, "Awaiting{{from: {}}}", from.join(","))
            }
            BeeStatus::MigratingOut { to } => write!(f, "MigratingOut{{to: {to}}}"),
        }
    }
}

/// A bee living on this hive.
#[derive(Debug)]
pub struct LocalBee {
    /// Identity (stable across migrations).
    pub id: BeeId,
    /// The state slice this bee owns.
    pub state: BeeState,
    /// The cells this bee owns (mirrors the registry's view).
    pub colony: BTreeSet<Cell>,
    /// Buffered work: `(handler index, envelope)`.
    pub mailbox: VecDeque<(u16, Envelope)>,
    /// Lifecycle.
    pub status: BeeStatus,
    /// Pinned bees (hive-local singletons) are never migrated.
    pub pinned: bool,
    /// Replication sequence number: count of committed, replicated
    /// transactions (colony replication).
    pub repl_seq: u64,
    /// Consecutive handler failures; reset by any success. Drives the
    /// quarantine circuit breaker.
    pub consecutive_failures: u32,
    /// If set, the circuit breaker tripped: while `now < until` the colony
    /// stops dequeuing and new mail dead-letters fast. Once the cooldown
    /// expires the next dequeue is a half-open probe (one message); a
    /// success clears this, a failure re-arms it.
    pub quarantined_until_ms: Option<u64>,
    /// Where the hive's [`Tally`](crate::tally::Tally) keeps this bee's
    /// unpublished bookkeeping.
    pub(crate) tally: TallyLink,
}

impl LocalBee {
    fn new(id: BeeId, colony: BTreeSet<Cell>, pinned: bool) -> Self {
        LocalBee {
            id,
            state: BeeState::new(),
            colony,
            mailbox: VecDeque::new(),
            status: BeeStatus::Active,
            pinned,
            repl_seq: 0,
            consecutive_failures: 0,
            quarantined_until_ms: None,
            tally: TallyLink::default(),
        }
    }

    /// Whether this bee can process mail right now.
    pub fn runnable(&self) -> bool {
        self.status == BeeStatus::Active && !self.mailbox.is_empty()
    }

    /// Whether the circuit breaker is open at `now_ms` (cooldown running).
    pub fn is_quarantined(&self, now_ms: u64) -> bool {
        self.quarantined_until_ms
            .is_some_and(|until| now_ms < until)
    }
}

/// How one message run ended, as the circuit breaker sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The handler committed: the failure streak resets and a half-open
    /// breaker closes.
    Ok,
    /// The handler failed (error, panic or injected fault): the streak
    /// grows and may trip the breaker.
    Failed,
    /// The message touched a cell outside its bee's colony and is routed
    /// again: neither a success nor a failure, so the breaker is untouched.
    Remapped,
}

/// Outcome of a policy-aware delivery ([`Queen::offer`]). Variants that
/// carry an [`Envelope`] hand it back to the hive for dead-lettering.
#[derive(Debug)]
pub enum Delivery {
    /// Queued on the bee's mailbox.
    Delivered,
    /// No such local bee; the envelope is returned untouched.
    NoBee(Envelope),
    /// The bee is quarantined: dead-letter fast, without queueing.
    Quarantined(Envelope),
    /// Mailbox full: the incoming message was rejected (returned) and the
    /// backlog preserved.
    Rejected(Envelope),
}

/// Bee state shipped to a local bee: a migrating bee's own state, or a
/// merged-away loser's.
#[derive(Debug)]
pub(crate) struct Shipment {
    /// The hive that shipped it.
    pub sender: HiveId,
    /// The shipped bee's state.
    pub state: BeeState,
    /// The cells that travel with it: a migrating bee's colony. Empty for a
    /// merge, whose registry event already gave the winner the loser's cells.
    pub colony: Vec<Cell>,
    /// A migrating bee's replication sequence (ignored for a merge).
    pub repl_seq: u64,
}

/// A shipment absorbed into a local bee (see [`Queen::absorb`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Applied {
    /// The receiving bee.
    pub bee: BeeId,
    /// The shipped bee: `bee` itself for a migration, the loser for a merge.
    pub from: BeeId,
    /// The hive that shipped it.
    pub sender: HiveId,
    /// Keys found in both states (0 unless a bee wrote outside its colony).
    pub conflicts: usize,
}

/// Per-application bee manager on one hive.
pub struct Queen {
    /// The application this queen serves.
    pub app: AppName,
    /// Local bees by id: every walk over them is in id order.
    bees: BTreeMap<BeeId, LocalBee>,
    singleton: Option<BeeId>,
    /// Shipments that arrived before the registry mirror placed them here:
    /// `(receiving bee, shipped bee) → shipment`. [`Queen::expect`] applies
    /// them.
    parked: BTreeMap<(BeeId, BeeId), Shipment>,
    /// The hive's flight-recorder journal, for bee spawn/retire and
    /// quarantine-close events. `None` for bare queens (unit tests).
    events: Option<Arc<EventJournal>>,
}

impl Queen {
    /// A queen with no bees.
    pub fn new(app: AppName) -> Self {
        Queen {
            app,
            bees: BTreeMap::new(),
            singleton: None,
            parked: BTreeMap::new(),
            events: None,
        }
    }

    /// Hands this queen the hive's event journal (wired by
    /// [`crate::hive::Hive::install`]).
    pub fn set_events(&mut self, events: Arc<EventJournal>) {
        self.events = Some(events);
    }

    /// Records a bee lifecycle event, if a journal is wired.
    fn emit(&self, kind: EventKind, bee: BeeId, detail: &str) {
        if let Some(events) = &self.events {
            events.record_full(kind, 0, &self.app, Some(bee), None, detail);
        }
    }

    /// The bee, if local.
    pub fn bee(&self, id: BeeId) -> Option<&LocalBee> {
        self.bees.get(&id)
    }

    /// Mutable access to a local bee.
    pub fn bee_mut(&mut self, id: BeeId) -> Option<&mut LocalBee> {
        self.bees.get_mut(&id)
    }

    /// All local bees, in id order.
    pub fn bees(&self) -> impl Iterator<Item = &LocalBee> {
        self.bees.values()
    }

    /// Ids of all local bees, in id order.
    pub fn bee_ids(&self) -> Vec<BeeId> {
        self.bees.keys().copied().collect()
    }

    /// Number of local bees.
    pub fn len(&self) -> usize {
        self.bees.len()
    }

    /// Whether this queen manages no bees.
    pub fn is_empty(&self) -> bool {
        self.bees.is_empty()
    }

    /// Ensures a cell-routed bee exists locally with (at least) `colony`.
    pub fn ensure_bee(
        &mut self,
        id: BeeId,
        colony: impl IntoIterator<Item = Cell>,
    ) -> &mut LocalBee {
        let bee = self.bee_or_spawn(id, "created by cell routing");
        bee.colony.extend(colony);
        bee
    }

    /// The hive-local singleton bee, created on first use with `alloc`.
    pub fn ensure_singleton(&mut self, alloc: impl FnOnce() -> BeeId) -> BeeId {
        if let Some(id) = self.singleton {
            return id;
        }
        let id = alloc();
        self.emit(EventKind::BeeSpawned, id, "created as hive-local singleton");
        self.bees
            .insert(id, LocalBee::new(id, BTreeSet::new(), true));
        self.singleton = Some(id);
        id
    }

    /// The singleton's id, if created.
    pub fn singleton(&self) -> Option<BeeId> {
        self.singleton
    }

    /// Queues a message for a local bee. Returns false if the bee is not here.
    /// Bypasses quarantine and mailbox bounds — used for internal requeues
    /// (migration forwarding, merge drains) that must never lose mail; new
    /// traffic goes through [`Queen::offer`].
    pub fn deliver(&mut self, id: BeeId, handler: u16, env: Envelope) -> bool {
        match self.bees.get_mut(&id) {
            Some(bee) => {
                bee.mailbox.push_back((handler, env));
                true
            }
            None => false,
        }
    }

    /// Policy-aware delivery for new traffic: applies the quarantine
    /// circuit breaker and the mailbox bound (`capacity == 0` = unbounded).
    pub fn offer(
        &mut self,
        id: BeeId,
        handler: u16,
        env: Envelope,
        now_ms: u64,
        capacity: usize,
    ) -> Delivery {
        let Some(bee) = self.bees.get_mut(&id) else {
            return Delivery::NoBee(env);
        };
        if bee.is_quarantined(now_ms) {
            return Delivery::Quarantined(env);
        }
        if capacity > 0 && bee.mailbox.len() >= capacity {
            return Delivery::Rejected(env);
        }
        bee.mailbox.push_back((handler, env));
        Delivery::Delivered
    }

    /// Feeds one run's outcome to the bee's circuit breaker. Returns
    /// `Some(until_ms)` when a failure (re-)quarantines the bee: its streak
    /// reached `threshold` (0 disables the breaker). A success resets the
    /// streak and closes an open breaker — the half-open probe succeeding.
    pub fn record_outcome(
        &mut self,
        id: BeeId,
        outcome: Outcome,
        threshold: u32,
        cooldown_ms: u64,
        now_ms: u64,
    ) -> Option<u64> {
        let bee = self.bees.get_mut(&id)?;
        match outcome {
            Outcome::Remapped => None,
            Outcome::Ok => {
                bee.consecutive_failures = 0;
                if bee.quarantined_until_ms.take().is_some() {
                    self.emit(
                        EventKind::QuarantineClose,
                        id,
                        "half-open probe succeeded; breaker closed",
                    );
                }
                None
            }
            Outcome::Failed => {
                bee.consecutive_failures = bee.consecutive_failures.saturating_add(1);
                let until = now_ms + cooldown_ms;
                let tripped = threshold > 0 && bee.consecutive_failures >= threshold;
                tripped.then(|| *bee.quarantined_until_ms.insert(until))
            }
        }
    }

    /// Whether `id` is quarantined at `now_ms`.
    pub fn is_quarantined(&self, id: BeeId, now_ms: u64) -> bool {
        self.bees.get(&id).is_some_and(|b| b.is_quarantined(now_ms))
    }

    /// Local bees whose circuit breaker is currently open.
    pub fn quarantined_bees(&self, now_ms: u64) -> Vec<BeeId> {
        self.bees
            .values()
            .filter(|b| b.is_quarantined(now_ms))
            .map(|b| b.id)
            .collect()
    }

    /// Ids of local bees that can run now.
    pub fn runnable(&self) -> impl Iterator<Item = BeeId> + '_ {
        self.bees.values().filter(|b| b.runnable()).map(|b| b.id)
    }

    /// Active local bees (broadcast targets).
    pub fn active_bees(&self) -> impl Iterator<Item = BeeId> + '_ {
        self.bees
            .values()
            .filter(|b| b.status == BeeStatus::Active)
            .map(|b| b.id)
    }

    /// Starts an outbound migration: freezes the bee and returns a snapshot
    /// of its state, colony and replication sequence for shipping. `None` if
    /// the bee isn't here, is pinned, or is already busy migrating/merging.
    pub fn start_migration(&mut self, id: BeeId, to: HiveId) -> Option<(Vec<u8>, Vec<Cell>, u64)> {
        let bee = self.bees.get_mut(&id)?;
        if bee.pinned || bee.status != BeeStatus::Active {
            return None;
        }
        let snapshot = bee.state.snapshot().ok()?;
        let colony: Vec<Cell> = bee.colony.iter().cloned().collect();
        bee.status = BeeStatus::MigratingOut { to };
        Some((snapshot, colony, bee.repl_seq))
    }

    /// Hands a bee off to the hive the registry now places it on: removes
    /// it and returns its buffered mailbox for forwarding.
    pub fn finish_migration_out(&mut self, id: BeeId, to: HiveId) -> Vec<(u16, Envelope)> {
        let Some(bee) = self.bees.remove(&id) else {
            return Vec::new();
        };
        self.emit(
            EventKind::BeeRetired,
            id,
            &format!("migrated out to hive-{}", to.0),
        );
        bee.mailbox.into_iter().collect()
    }

    /// Installs a bee from this hive's shadow of it (failover): the state,
    /// colony and replication sequence the shadow replicated.
    pub(crate) fn promote_shadow(
        &mut self,
        id: BeeId,
        state: BeeState,
        colony: Vec<Cell>,
        repl_seq: u64,
    ) {
        let bee = self.bee_or_spawn(id, "promoted from a local shadow");
        bee.state = state;
        bee.colony.extend(colony);
        bee.status = BeeStatus::Active;
        bee.repl_seq = repl_seq;
    }

    /// The registry placed `from`'s state with local bee `bee`: `from ==
    /// bee` for a migration into this hive, the loser for a merge.
    /// A shipment already parked is absorbed now; otherwise `bee` (created
    /// if absent) waits for it and does not run.
    pub(crate) fn expect(&mut self, bee: BeeId, from: BeeId) -> Option<Applied> {
        if let Some(shipment) = self.parked.remove(&(bee, from)) {
            return Some(self.absorb(bee, from, shipment));
        }
        match &mut self.bee_or_spawn(bee, RECEIVER).status {
            BeeStatus::Awaiting { from: waiting } => {
                waiting.insert(from);
            }
            status => {
                *status = BeeStatus::Awaiting {
                    from: BTreeSet::from([from]),
                }
            }
        }
        None
    }

    /// A shipment of `from`'s state for local bee `bee` arrived. Absorbed if
    /// the bee expects it, otherwise parked for [`Queen::expect`]. The
    /// reliable channel delivers each shipment once, with one exception:
    /// a migrating bee that is already live here and expects nothing
    /// drops its shipment. That happens when this hive restarted and
    /// re-created the bee empty before the retransmitted shipment came;
    /// parked, the stale state would be absorbed by a later migration of
    /// the bee back to this hive.
    pub(crate) fn receive(
        &mut self,
        bee: BeeId,
        from: BeeId,
        shipment: Shipment,
    ) -> Option<Applied> {
        let local = self.bees.get(&bee);
        if local.is_some_and(
            |b| matches!(&b.status, BeeStatus::Awaiting { from: w } if w.contains(&from)),
        ) {
            return Some(self.absorb(bee, from, shipment));
        }
        if from != bee || local.is_none() {
            self.parked.insert((bee, from), shipment);
        }
        None
    }

    /// Whether a shipment of `from`'s state for `bee` is parked.
    pub(crate) fn is_parked(&self, bee: BeeId, from: BeeId) -> bool {
        self.parked.contains_key(&(bee, from))
    }

    /// Bees whose own state is parked here: migrations shipped to this hive
    /// that the registry mirror does not place here (yet).
    pub(crate) fn parked_migrations(&self) -> impl Iterator<Item = BeeId> + '_ {
        self.parked
            .keys()
            .filter(|(bee, from)| bee == from)
            .map(|&(bee, _)| bee)
    }

    /// The shipped bees whose state is parked for `bee`, in id order.
    pub(crate) fn parked_for(&self, bee: BeeId) -> impl Iterator<Item = BeeId> + '_ {
        let range = (bee, BeeId(0))..=(bee, BeeId(u64::MAX));
        self.parked.range(range).map(|(&(_, from), _)| from)
    }

    /// Absorbs a shipment into local bee `bee` (created if absent) — the
    /// one place shipped state lands. A migration is a merge into an empty
    /// placeholder that also takes the shipped colony and replication
    /// sequence. If `bee` was waiting for it, it runs again once nothing
    /// else is outstanding.
    pub(crate) fn absorb(&mut self, bee: BeeId, from: BeeId, shipment: Shipment) -> Applied {
        let Shipment {
            sender,
            state,
            colony,
            repl_seq,
        } = shipment;
        let b = self.bee_or_spawn(bee, RECEIVER);
        let conflicts = b.state.absorb(state);
        b.colony.extend(colony);
        if from == bee {
            b.repl_seq = repl_seq;
        }
        if let BeeStatus::Awaiting { from: waiting } = &mut b.status {
            waiting.remove(&from);
            if waiting.is_empty() {
                b.status = BeeStatus::Active;
            }
        }
        Applied {
            bee,
            from,
            sender,
            conflicts,
        }
    }

    /// The local bee `id`, created (and logged as spawned, with `why`) if
    /// absent.
    fn bee_or_spawn(&mut self, id: BeeId, why: &str) -> &mut LocalBee {
        if !self.bees.contains_key(&id) {
            self.emit(EventKind::BeeSpawned, id, why);
        }
        self.bees
            .entry(id)
            .or_insert_with(|| LocalBee::new(id, BTreeSet::new(), false))
    }

    /// Removes a merged-away loser locally, returning its state and mailbox
    /// so the hive can ship/forward them to the winner.
    pub fn remove_loser(&mut self, loser: BeeId) -> Option<(BeeState, Vec<(u16, Envelope)>)> {
        let bee = self.bees.remove(&loser)?;
        self.emit(EventKind::BeeRetired, loser, "absorbed by colony merge");
        if self.singleton == Some(loser) {
            self.singleton = None;
        }
        Some((bee.state, bee.mailbox.into_iter().collect()))
    }

    /// Clears a bee's pinned flag so a draining hive can evacuate its
    /// hive-local singletons over the normal migration path. Returns whether
    /// the bee was pinned. Pinning otherwise means "never migrate", so this
    /// is only called once the whole hive is leaving the cluster.
    pub fn unpin(&mut self, id: BeeId) -> bool {
        match self.bees.get_mut(&id) {
            Some(bee) => std::mem::replace(&mut bee.pinned, false),
            None => false,
        }
    }

    /// Removes a bee the registry no longer has.
    pub fn remove(&mut self, id: BeeId) {
        if self.bees.remove(&id).is_some() {
            self.emit(EventKind::BeeRetired, id, "removed from the registry");
        }
        if self.singleton == Some(id) {
            self.singleton = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Dst, Source};
    use serde::{Deserialize, Serialize};
    use std::sync::Arc;

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Dummy;
    crate::impl_message!(Dummy);

    fn env() -> Envelope {
        Envelope {
            msg: Arc::new(Dummy),
            src: Source::External(HiveId(1)),
            dst: Dst::Broadcast,
            trace: crate::trace::TraceContext::root(HiveId(1)),
            deliveries: 0,
        }
    }

    fn bid(seq: u32) -> BeeId {
        BeeId::new(HiveId(1), seq)
    }

    #[test]
    fn ensure_and_deliver() {
        let mut q = Queen::new("a".into());
        q.ensure_bee(bid(1), [Cell::new("S", "k")]);
        assert!(q.deliver(bid(1), 0, env()));
        assert!(!q.deliver(bid(2), 0, env()));
        assert_eq!(q.runnable().collect::<Vec<_>>(), vec![bid(1)]);
    }

    #[test]
    fn singleton_is_created_once_and_pinned() {
        let mut q = Queen::new("a".into());
        let s1 = q.ensure_singleton(|| bid(7));
        let s2 = q.ensure_singleton(|| bid(8));
        assert_eq!(s1, s2);
        assert!(q.bee(s1).unwrap().pinned);
        // Pinned bees refuse to migrate.
        assert!(q.start_migration(s1, HiveId(2)).is_none());
    }

    #[test]
    fn unpin_allows_drain_migration() {
        let mut q = Queen::new("a".into());
        let s = q.ensure_singleton(|| bid(7));
        assert!(q.unpin(s), "singleton was pinned");
        assert!(!q.unpin(s), "second unpin reports already-unpinned");
        assert!(!q.unpin(bid(99)), "unknown bee");
        assert!(q.start_migration(s, HiveId(2)).is_some());
    }

    #[test]
    fn migration_freezes_then_forwards() {
        let mut q = Queen::new("a".into());
        q.ensure_bee(bid(1), [Cell::new("S", "k")]);
        let (snapshot, colony, repl_seq) = q.start_migration(bid(1), HiveId(2)).unwrap();
        assert_eq!(repl_seq, 0);
        assert!(!snapshot.is_empty() || snapshot.is_empty()); // snapshot produced
        assert_eq!(colony, vec![Cell::new("S", "k")]);
        // Frozen: message buffers, bee not runnable.
        assert!(q.deliver(bid(1), 0, env()));
        assert_eq!(q.runnable().count(), 0);
        // Second migration attempt is rejected while in flight.
        assert!(q.start_migration(bid(1), HiveId(3)).is_none());
        // The registry places it on hive 2: buffered mail comes back.
        let mail = q.finish_migration_out(bid(1), HiveId(2));
        assert_eq!(mail.len(), 1);
        assert!(q.bee(bid(1)).is_none());
    }

    /// The rendezvous for both kinds of shipment, in both orders: whichever
    /// of `expect` (the registry event) and `receive` (the shipment) comes
    /// second applies it. Mail queued while the bee waits runs afterwards,
    /// in arrival order, and a second shipment changes nothing.
    #[test]
    fn rendezvous_applies_whichever_comes_second() {
        let shipment = |value: u32| {
            let mut state = BeeState::new();
            state.dict_mut("S").put("b", &value).unwrap();
            Shipment {
                sender: HiveId(2),
                state,
                colony: vec![Cell::new("S", "b")],
                repl_seq: 3,
            }
        };
        for migration in [true, false] {
            for event_first in [true, false] {
                let case = format!("migration={migration} event_first={event_first}");
                let mut q = Queen::new("a".into());
                let bee = bid(1);
                // A migration ships the bee's own state; a merge, a loser's.
                let from = if migration { bee } else { bid(9) };
                if !migration {
                    q.ensure_bee(bee, [Cell::new("S", "a")]);
                }
                // The registry places the shipped state with `bee`.
                let event = |q: &mut Queen| q.expect(bee, from);
                let applied = if event_first {
                    assert_eq!(event(&mut q), None, "{case}");
                    for h in 0..3 {
                        assert!(q.deliver(bee, h, env()), "{case}");
                    }
                    assert_eq!(
                        q.runnable().count(),
                        0,
                        "{case}: a waiting bee must not run"
                    );
                    q.receive(bee, from, shipment(2))
                } else {
                    assert_eq!(q.receive(bee, from, shipment(2)), None, "{case}");
                    assert!(q.is_parked(bee, from), "{case}");
                    assert_eq!(
                        q.parked_migrations().count(),
                        usize::from(migration),
                        "{case}"
                    );
                    event(&mut q)
                };
                let applied = applied.unwrap_or_else(|| panic!("{case}: not applied"));
                assert_eq!((applied.bee, applied.from), (bee, from), "{case}");
                assert_eq!(
                    (applied.sender, applied.conflicts),
                    (HiveId(2), 0),
                    "{case}"
                );
                assert!(!q.is_parked(bee, from), "{case}");

                let b = q.bee(bee).unwrap();
                assert_eq!(b.status, BeeStatus::Active, "{case}");
                assert_eq!(b.state.dict("S").unwrap().get::<u32>("b").unwrap(), Some(2));
                assert!(b.colony.contains(&Cell::new("S", "b")), "{case}");
                // Only a migration takes the shipped replication sequence.
                assert_eq!(b.repl_seq, if migration { 3 } else { 0 }, "{case}");

                // A second shipment after the apply changes nothing. A
                // migration's, for the live bee, is dropped, not parked.
                let before = b.state.clone();
                assert_eq!(q.receive(bee, from, shipment(99)), None, "{case}");
                assert_eq!(
                    q.bee(bee).unwrap().state,
                    before,
                    "{case}: second shipment applied"
                );
                assert_eq!(q.is_parked(bee, from), !migration, "{case}");

                if event_first {
                    let mailbox = &q.bee(bee).unwrap().mailbox;
                    let order: Vec<u16> = mailbox.iter().map(|(h, _)| *h).collect();
                    assert_eq!(order, vec![0, 1, 2], "{case}: mail out of order");
                }
            }
        }
    }

    #[test]
    fn a_bee_runs_once_every_expected_shipment_arrived() {
        let mut q = Queen::new("a".into());
        q.ensure_bee(bid(1), [Cell::new("S", "a")]);
        q.deliver(bid(1), 0, env());
        let merge = |state| Shipment {
            sender: HiveId(2),
            state,
            colony: Vec::new(),
            repl_seq: 0,
        };
        assert_eq!(q.expect(bid(1), bid(8)), None);
        assert_eq!(q.expect(bid(1), bid(9)), None);
        assert!(q.receive(bid(1), bid(8), merge(BeeState::new())).is_some());
        assert_eq!(q.runnable().count(), 0, "one loser still outstanding");
        assert!(q.receive(bid(1), bid(9), merge(BeeState::new())).is_some());
        assert_eq!(q.runnable().collect::<Vec<_>>(), vec![bid(1)]);
    }

    #[test]
    fn remove_loser_returns_state_and_mail() {
        let mut q = Queen::new("a".into());
        q.ensure_bee(bid(1), [Cell::new("S", "a")]);
        q.deliver(bid(1), 0, env());
        let (state, mail) = q.remove_loser(bid(1)).unwrap();
        assert_eq!(state.total_entries(), 0);
        assert_eq!(mail.len(), 1);
        assert!(q.bee(bid(1)).is_none());
    }

    #[test]
    fn consecutive_failures_trip_and_probe_closes_the_breaker() {
        let mut q = Queen::new("a".into());
        q.ensure_bee(bid(1), [Cell::new("S", "k")]);
        // Two failures with threshold 3: breaker stays closed.
        for _ in 0..2 {
            assert_eq!(q.record_outcome(bid(1), Outcome::Failed, 3, 100, 10), None);
        }
        assert!(!q.is_quarantined(bid(1), 10));
        // Third consecutive failure trips it.
        assert_eq!(
            q.record_outcome(bid(1), Outcome::Failed, 3, 100, 20),
            Some(120)
        );
        assert!(q.is_quarantined(bid(1), 119));
        assert_eq!(q.quarantined_bees(119), vec![bid(1)]);
        // While open: offers dead-letter fast. (That the half-open probe
        // runs one message is the hive's part: `failure_injection`'s
        // `quarantine_opens_and_recovers_via_half_open_probe_sequentially`.)
        let d = q.offer(bid(1), 0, env(), 50, 0);
        assert!(matches!(d, Delivery::Quarantined(_)));
        // Cooldown expired: the breaker is half-open.
        assert!(!q.is_quarantined(bid(1), 120));
        // Probe re-maps → neither outcome: the breaker stays half-open.
        assert_eq!(
            q.record_outcome(bid(1), Outcome::Remapped, 3, 100, 125),
            None
        );
        assert!(!q.is_quarantined(bid(1), 125));
        // Probe fails → re-quarantined with a fresh cooldown.
        assert_eq!(
            q.record_outcome(bid(1), Outcome::Failed, 3, 100, 130),
            Some(230)
        );
        assert!(q.is_quarantined(bid(1), 200));
        // Probe succeeds → breaker closes and the streak resets.
        assert_eq!(q.record_outcome(bid(1), Outcome::Ok, 3, 100, 240), None);
        assert!(!q.is_quarantined(bid(1), 240));
        assert_eq!(q.bee(bid(1)).unwrap().consecutive_failures, 0);
    }

    #[test]
    fn offer_applies_mailbox_bounds() {
        let mut q = Queen::new("a".into());
        q.ensure_bee(bid(1), [Cell::new("S", "k")]);
        // Capacity 2: third offer is rejected, backlog intact.
        for _ in 0..2 {
            let d = q.offer(bid(1), 0, env(), 0, 2);
            assert!(matches!(d, Delivery::Delivered));
        }
        let d = q.offer(bid(1), 0, env(), 0, 2);
        assert!(matches!(d, Delivery::Rejected(_)));
        assert_eq!(q.bee(bid(1)).unwrap().mailbox.len(), 2);
        // Capacity 0 = unbounded.
        let d = q.offer(bid(1), 0, env(), 0, 0);
        assert!(matches!(d, Delivery::Delivered));
        // Unknown bee hands the envelope back.
        let d = q.offer(bid(9), 0, env(), 0, 0);
        assert!(matches!(d, Delivery::NoBee(_)));
    }

    #[test]
    fn a_success_resets_the_streak_and_a_remap_keeps_it() {
        let mut q = Queen::new("a".into());
        q.ensure_bee(bid(1), [Cell::new("S", "k")]);
        for _ in 0..2 {
            assert_eq!(q.record_outcome(bid(1), Outcome::Failed, 5, 100, 0), None);
        }
        assert_eq!(q.record_outcome(bid(1), Outcome::Remapped, 5, 100, 0), None);
        assert_eq!(q.bee(bid(1)).unwrap().consecutive_failures, 2);
        assert_eq!(q.record_outcome(bid(1), Outcome::Ok, 5, 100, 0), None);
        assert_eq!(q.bee(bid(1)).unwrap().consecutive_failures, 0);
    }
}
