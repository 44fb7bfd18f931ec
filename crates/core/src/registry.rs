//! The cluster-wide cell registry: which bee owns which cells, and which
//! hive hosts which bee.
//!
//! The registry is a deterministic state machine replicated with
//! `beehive-raft` (our substitute for the paper's Chubby-style locking). All
//! hives — registry voters and learners alike — apply the same command log,
//! so every hive can serve lookups from its local mirror, and the hive that
//! proposed a command recognizes the answer by the `(origin, seq)` pair it
//! embedded in the command.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::cell::Cell;
use crate::id::{AppName, BeeId, HiveId};

/// Registry mutations, proposed by hives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RegistryOp {
    /// Finds the bee owning `cells` for `app`; creates `new_bee` on `origin`
    /// when nothing owns any of them; merges colonies when several bees own
    /// parts of the set (the paper's K1 ∩ K2 ≠ ∅ consistency guarantee).
    LookupOrCreate {
        /// The application the cells belong to.
        app: AppName,
        /// Canonicalized mapped cells of the message being routed.
        cells: Vec<Cell>,
        /// Proposer-allocated id for the bee to create if none exists.
        new_bee: BeeId,
    },
    /// Moves a bee to another hive (live migration).
    MoveBee {
        /// The bee to move.
        bee: BeeId,
        /// Destination hive.
        to: HiveId,
    },
    /// Deletes a bee and frees its cells.
    RemoveBee {
        /// The bee to remove.
        bee: BeeId,
    },
}

/// A proposed command: the op plus its proposer and a proposer-local sequence
/// number for correlating the applied result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistryCommand {
    /// Proposing hive.
    pub origin: HiveId,
    /// Proposer-local sequence number.
    pub seq: u64,
    /// The operation.
    pub op: RegistryOp,
}

impl RegistryCommand {
    /// Encodes for proposing into Raft.
    pub fn encode(&self) -> Vec<u8> {
        beehive_wire::to_vec(self).expect("registry command encodes")
    }

    /// Decodes an applied Raft entry.
    pub fn decode(bytes: &[u8]) -> crate::error::Result<Self> {
        beehive_wire::from_slice(bytes).map_err(crate::error::Error::from)
    }
}

/// The deterministic result of applying a [`RegistryCommand`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RegistryEvent {
    /// The outcome of a `LookupOrCreate`.
    Routed {
        /// Application.
        app: AppName,
        /// The owning (possibly new) bee.
        bee: BeeId,
        /// The hive currently hosting it.
        hive: HiveId,
        /// Whether the bee was created by this command.
        created: bool,
        /// Colonies merged into the winner: `(loser_bee, losers_hive)`.
        merged: Vec<(BeeId, HiveId)>,
    },
    /// A bee moved hives.
    Moved {
        /// Application.
        app: AppName,
        /// The bee.
        bee: BeeId,
        /// Previous hive.
        from: HiveId,
        /// New hive.
        to: HiveId,
    },
    /// A bee was removed.
    Removed {
        /// Application.
        app: AppName,
        /// The removed bee.
        bee: BeeId,
        /// The hive that hosted it.
        hive: HiveId,
    },
    /// The command could not be applied.
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
}

/// Everything the registry knows about one bee.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BeeRecord {
    /// Owning application.
    pub app: AppName,
    /// Hosting hive.
    pub hive: HiveId,
    /// Cells the bee exclusively owns.
    pub colony: BTreeSet<Cell>,
}

/// The registry state machine. Every hive replicates it through its
/// registry Raft group, a standalone hive through a group of one.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RegistryState {
    /// `(app, cell) → bee` ownership index.
    cells: BTreeMap<AppName, BTreeMap<Cell, BeeId>>,
    /// All known bees.
    bees: BTreeMap<BeeId, BeeRecord>,
}

impl RegistryState {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The owner of `cell` in `app`, if any.
    pub fn owner(&self, app: &str, cell: &Cell) -> Option<BeeId> {
        self.cells.get(app)?.get(cell).copied()
    }

    /// The record for `bee`.
    pub fn bee(&self, bee: BeeId) -> Option<&BeeRecord> {
        self.bees.get(&bee)
    }

    /// The hive hosting `bee`.
    pub fn hive_of(&self, bee: BeeId) -> Option<HiveId> {
        self.bees.get(&bee).map(|r| r.hive)
    }

    /// The cells `bee` owns, empty for an unknown bee.
    pub fn colony_of(&self, bee: BeeId) -> Vec<Cell> {
        self.bees
            .get(&bee)
            .map(|r| r.colony.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of known bees.
    pub fn bee_count(&self) -> usize {
        self.bees.len()
    }

    /// Iterates all bees.
    pub fn bees(&self) -> impl Iterator<Item = (&BeeId, &BeeRecord)> {
        self.bees.iter()
    }

    /// Distinct owners of the given cells.
    pub fn owners_of(&self, app: &str, cells: &[Cell]) -> Vec<BeeId> {
        let mut owners = Vec::new();
        for c in cells {
            if let Some(b) = self.owner(app, c) {
                if !owners.contains(&b) {
                    owners.push(b);
                }
            }
        }
        owners
    }

    /// Fast-path lookup used by dispatchers: `Some((bee, hive))` when a
    /// single bee already owns **all** of `cells`.
    pub fn lookup_exact(&self, app: &str, cells: &[Cell]) -> Option<(BeeId, HiveId)> {
        let mut owner = None;
        for c in cells {
            match (owner, self.owner(app, c)) {
                (None, found) => owner = found,
                (Some(bee), Some(other)) if other != bee => return None,
                _ => {}
            }
        }
        let bee = owner?;
        let record = self.bees.get(&bee)?;
        if cells.iter().all(|c| record.colony.contains(c)) {
            Some((bee, record.hive))
        } else {
            None
        }
    }

    /// Applies a command deterministically.
    pub fn apply_command(&mut self, cmd: &RegistryCommand) -> RegistryEvent {
        match &cmd.op {
            RegistryOp::LookupOrCreate {
                app,
                cells,
                new_bee,
            } => self.lookup_or_create(cmd.origin, app, cells, *new_bee),
            RegistryOp::MoveBee { bee, to } => match self.bees.get_mut(bee) {
                Some(rec) => {
                    let from = rec.hive;
                    rec.hive = *to;
                    RegistryEvent::Moved {
                        app: rec.app.clone(),
                        bee: *bee,
                        from,
                        to: *to,
                    }
                }
                None => RegistryEvent::Rejected {
                    reason: format!("move: unknown bee {bee}"),
                },
            },
            RegistryOp::RemoveBee { bee } => match self.bees.remove(bee) {
                Some(rec) => {
                    if let Some(index) = self.cells.get_mut(&rec.app) {
                        for c in &rec.colony {
                            index.remove(c);
                        }
                    }
                    RegistryEvent::Removed {
                        app: rec.app,
                        bee: *bee,
                        hive: rec.hive,
                    }
                }
                None => RegistryEvent::Rejected {
                    reason: format!("remove: unknown bee {bee}"),
                },
            },
        }
    }

    fn lookup_or_create(
        &mut self,
        origin: HiveId,
        app: &str,
        cells: &[Cell],
        new_bee: BeeId,
    ) -> RegistryEvent {
        if cells.is_empty() {
            return RegistryEvent::Rejected {
                reason: "lookup with no cells".into(),
            };
        }
        let owners = self.owners_of(app, cells);
        let mut merged = Vec::new();
        let (bee, created) = match owners[..] {
            // Nothing owns any of these cells: create (or reuse, on a
            // duplicate retry) the proposer's bee.
            [] => {
                let created = !self.bees.contains_key(&new_bee);
                if created {
                    self.bees.insert(
                        new_bee,
                        BeeRecord {
                            app: app.to_string(),
                            hive: origin,
                            colony: BTreeSet::new(),
                        },
                    );
                }
                (new_bee, created)
            }
            [owner] => (owner, false),
            _ => {
                // Colonies must merge to preserve the intersection guarantee.
                // Winner: largest colony, ties broken by smallest id — both
                // deterministic.
                let winner = *owners
                    .iter()
                    .max_by_key(|b| {
                        (
                            self.bees.get(b).map(|r| r.colony.len()).unwrap_or(0),
                            std::cmp::Reverse(**b),
                        )
                    })
                    .unwrap();
                for loser in owners.iter().copied().filter(|&b| b != winner) {
                    let rec = self.bees.remove(&loser).expect("loser exists");
                    merged.push((loser, rec.hive));
                    let index = self.cells.entry(app.to_string()).or_default();
                    for c in &rec.colony {
                        index.insert(c.clone(), winner);
                    }
                    self.bees
                        .get_mut(&winner)
                        .unwrap()
                        .colony
                        .extend(rec.colony);
                }
                (winner, false)
            }
        };
        // The one place a cell gets its first owner: every cell of the set
        // still unowned goes to `bee`.
        let index = self.cells.entry(app.to_string()).or_default();
        let rec = self.bees.get_mut(&bee).expect("bee recorded above");
        for c in cells {
            if !index.contains_key(c) {
                index.insert(c.clone(), bee);
                rec.colony.insert(c.clone());
            }
        }
        RegistryEvent::Routed {
            app: app.to_string(),
            bee,
            hive: rec.hive,
            created,
            merged,
        }
    }
}

impl beehive_raft::StateMachine for RegistryState {
    type Output = (RegistryCommand, RegistryEvent);

    fn apply(&mut self, _index: beehive_raft::LogIndex, data: &[u8]) -> Self::Output {
        let cmd = RegistryCommand::decode(data).expect("registry commands are well-formed");
        let event = self.apply_command(&cmd);
        (cmd, event)
    }

    fn snapshot(&self) -> Vec<u8> {
        beehive_wire::to_vec(self).expect("registry state snapshots")
    }

    fn restore(&mut self, snapshot: &[u8]) {
        *self = beehive_wire::from_slice(snapshot).expect("registry snapshot restores");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(seq: u64, op: RegistryOp) -> RegistryCommand {
        RegistryCommand {
            origin: HiveId(1),
            seq,
            op,
        }
    }

    fn cells(names: &[&str]) -> Vec<Cell> {
        names.iter().map(|n| Cell::new("S", *n)).collect()
    }

    #[test]
    fn create_then_lookup() {
        let mut r = RegistryState::new();
        let b1 = BeeId::new(HiveId(1), 1);
        let ev = r.apply_command(&cmd(
            1,
            RegistryOp::LookupOrCreate {
                app: "te".into(),
                cells: cells(&["sw1"]),
                new_bee: b1,
            },
        ));
        assert_eq!(
            ev,
            RegistryEvent::Routed {
                app: "te".into(),
                bee: b1,
                hive: HiveId(1),
                created: true,
                merged: vec![]
            }
        );
        assert_eq!(
            r.lookup_exact("te", &cells(&["sw1"])),
            Some((b1, HiveId(1)))
        );
        assert_eq!(r.owner("te", &Cell::new("S", "sw1")), Some(b1));
    }

    #[test]
    fn second_lookup_finds_existing_even_with_new_id() {
        let mut r = RegistryState::new();
        let b1 = BeeId::new(HiveId(1), 1);
        let b2 = BeeId::new(HiveId(2), 1);
        r.apply_command(&cmd(
            1,
            RegistryOp::LookupOrCreate {
                app: "te".into(),
                cells: cells(&["sw1"]),
                new_bee: b1,
            },
        ));
        let ev = r.apply_command(&RegistryCommand {
            origin: HiveId(2),
            seq: 1,
            op: RegistryOp::LookupOrCreate {
                app: "te".into(),
                cells: cells(&["sw1"]),
                new_bee: b2,
            },
        });
        match ev {
            RegistryEvent::Routed { bee, created, .. } => {
                assert_eq!(bee, b1);
                assert!(!created);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(r.bee(b2).is_none(), "no spurious bee created");
    }

    #[test]
    fn overlapping_lookup_extends_colony() {
        let mut r = RegistryState::new();
        let b1 = BeeId::new(HiveId(1), 1);
        r.apply_command(&cmd(
            1,
            RegistryOp::LookupOrCreate {
                app: "a".into(),
                cells: cells(&["k1"]),
                new_bee: b1,
            },
        ));
        // {k1, k2} intersects b1's colony → same bee, k2 now owned too.
        let ev = r.apply_command(&cmd(
            2,
            RegistryOp::LookupOrCreate {
                app: "a".into(),
                cells: cells(&["k1", "k2"]),
                new_bee: BeeId::new(HiveId(1), 2),
            },
        ));
        match ev {
            RegistryEvent::Routed {
                bee,
                created,
                merged,
                ..
            } => {
                assert_eq!(bee, b1);
                assert!(!created && merged.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.owner("a", &Cell::new("S", "k2")), Some(b1));
        assert_eq!(r.bee(b1).unwrap().colony.len(), 2);
    }

    #[test]
    fn disjoint_colonies_merge_when_bridged() {
        let mut r = RegistryState::new();
        let b1 = BeeId::new(HiveId(1), 1);
        let b2 = BeeId::new(HiveId(2), 1);
        r.apply_command(&cmd(
            1,
            RegistryOp::LookupOrCreate {
                app: "a".into(),
                cells: cells(&["k1", "k3"]),
                new_bee: b1,
            },
        ));
        r.apply_command(&RegistryCommand {
            origin: HiveId(2),
            seq: 1,
            op: RegistryOp::LookupOrCreate {
                app: "a".into(),
                cells: cells(&["k2"]),
                new_bee: b2,
            },
        });
        // A message mapping {k1, k2} bridges the two colonies.
        let ev = r.apply_command(&cmd(
            2,
            RegistryOp::LookupOrCreate {
                app: "a".into(),
                cells: cells(&["k1", "k2"]),
                new_bee: BeeId::new(HiveId(1), 9),
            },
        ));
        match ev {
            RegistryEvent::Routed { bee, merged, .. } => {
                // b1 has the larger colony (2 cells) and wins.
                assert_eq!(bee, b1);
                assert_eq!(merged, vec![(b2, HiveId(2))]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(r.bee(b2).is_none());
        for k in ["k1", "k2", "k3"] {
            assert_eq!(r.owner("a", &Cell::new("S", k)), Some(b1), "cell {k}");
        }
    }

    #[test]
    fn merge_tie_breaks_by_smallest_id() {
        let mut r = RegistryState::new();
        let b1 = BeeId::new(HiveId(1), 1);
        let b2 = BeeId::new(HiveId(2), 1);
        assert!(b1 < b2);
        r.apply_command(&cmd(
            1,
            RegistryOp::LookupOrCreate {
                app: "a".into(),
                cells: cells(&["k1"]),
                new_bee: b1,
            },
        ));
        r.apply_command(&cmd(
            2,
            RegistryOp::LookupOrCreate {
                app: "a".into(),
                cells: cells(&["k2"]),
                new_bee: b2,
            },
        ));
        let ev = r.apply_command(&cmd(
            3,
            RegistryOp::LookupOrCreate {
                app: "a".into(),
                cells: cells(&["k1", "k2"]),
                new_bee: BeeId::new(HiveId(1), 9),
            },
        ));
        match ev {
            RegistryEvent::Routed { bee, .. } => assert_eq!(bee, b1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn apps_are_isolated() {
        let mut r = RegistryState::new();
        let b1 = BeeId::new(HiveId(1), 1);
        let b2 = BeeId::new(HiveId(1), 2);
        r.apply_command(&cmd(
            1,
            RegistryOp::LookupOrCreate {
                app: "a".into(),
                cells: cells(&["k"]),
                new_bee: b1,
            },
        ));
        let ev = r.apply_command(&cmd(
            2,
            RegistryOp::LookupOrCreate {
                app: "b".into(),
                cells: cells(&["k"]),
                new_bee: b2,
            },
        ));
        match ev {
            RegistryEvent::Routed { bee, created, .. } => {
                assert_eq!(bee, b2);
                assert!(created, "same cell in a different app is a different bee");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn move_bee_updates_hive() {
        let mut r = RegistryState::new();
        let b1 = BeeId::new(HiveId(1), 1);
        r.apply_command(&cmd(
            1,
            RegistryOp::LookupOrCreate {
                app: "a".into(),
                cells: cells(&["k"]),
                new_bee: b1,
            },
        ));
        let ev = r.apply_command(&cmd(
            2,
            RegistryOp::MoveBee {
                bee: b1,
                to: HiveId(5),
            },
        ));
        assert_eq!(
            ev,
            RegistryEvent::Moved {
                app: "a".into(),
                bee: b1,
                from: HiveId(1),
                to: HiveId(5)
            }
        );
        assert_eq!(r.hive_of(b1), Some(HiveId(5)));
        assert_eq!(r.lookup_exact("a", &cells(&["k"])), Some((b1, HiveId(5))));
    }

    #[test]
    fn remove_bee_frees_cells() {
        let mut r = RegistryState::new();
        let b1 = BeeId::new(HiveId(1), 1);
        r.apply_command(&cmd(
            1,
            RegistryOp::LookupOrCreate {
                app: "a".into(),
                cells: cells(&["k"]),
                new_bee: b1,
            },
        ));
        r.apply_command(&cmd(2, RegistryOp::RemoveBee { bee: b1 }));
        assert!(r.bee(b1).is_none());
        assert_eq!(r.owner("a", &Cell::new("S", "k")), None);
    }

    #[test]
    fn unknown_bee_operations_are_rejected() {
        let mut r = RegistryState::new();
        let ghost = BeeId::new(HiveId(9), 9);
        for op in [
            RegistryOp::MoveBee {
                bee: ghost,
                to: HiveId(1),
            },
            RegistryOp::RemoveBee { bee: ghost },
        ] {
            assert!(matches!(
                r.apply_command(&cmd(1, op)),
                RegistryEvent::Rejected { .. }
            ));
        }
    }

    #[test]
    fn state_machine_snapshot_roundtrip() {
        use beehive_raft::StateMachine;
        let mut r = RegistryState::new();
        let b1 = BeeId::new(HiveId(1), 1);
        r.apply_command(&cmd(
            1,
            RegistryOp::LookupOrCreate {
                app: "a".into(),
                cells: cells(&["k"]),
                new_bee: b1,
            },
        ));
        let snap = r.snapshot();
        let mut r2 = RegistryState::new();
        r2.restore(&snap);
        assert_eq!(r, r2);
    }
}
