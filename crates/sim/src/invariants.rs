//! Cluster-wide invariant checkers for the chaos harness.
//!
//! After every virtual tick the chaos runner snapshots the whole cluster
//! into a [`ClusterAudit`] — per-hive counters, colonies, dictionary
//! contents, registry digests, plus fabric fault accounting — and runs the
//! six checkers over it:
//!
//! 1. **Ownership exclusivity** ([`check_ownership`]): no cell is owned by
//!    two live active bees, no bee is active on two hives, and every entry
//!    a bee stores lies in its own colony — so no cell has entries in two
//!    bees' state.
//! 2. **Registry agreement** ([`check_registry_agreement`]): hives that
//!    applied the same committed prefix (equal `applied_seq`) hold
//!    byte-identical registry mirrors.
//! 3. **Message conservation** ([`check_conservation`]): every external
//!    emit is handled, queued, dead-lettered, absorbed by a crash ledger,
//!    or still in transit on a reliable channel — nothing vanishes
//!    silently. Fabric drops and duplicates no longer enter the equation:
//!    the channel layer retransmits the former and suppresses the latter.
//! 4. **Transaction atomicity** ([`check_atomicity`]): paired dictionary
//!    writes performed in one transaction are never observed torn, across
//!    crashes and restarts.
//! 5. **Trace well-formedness** ([`check_traces`]): no recorded span has a
//!    zero trace/span id or is its own parent.
//! 6. **Event-journal well-formedness** ([`check_events`]): the flight
//!    recorder never produced an event whose JSON rendering is malformed
//!    (unbalanced quotes / raw control characters), as counted by the
//!    journal's own self-audit.
//!
//! Audits also fold into a [`Digest`] that deliberately excludes wall-clock
//! times and span ids (the only values that may differ between two runs of
//! the same seed), so two runs of one seed produce byte-identical digests.
//! The event-journal counter is likewise excluded: event counts depend on
//! wall-clock-driven paths (connect backoff, half-open probes) and auditing
//! them would make digests timing-sensitive; the checker gates on the
//! *malformed* count instead, which must always be zero.

use std::collections::BTreeMap;

use beehive_core::{BeeId, Cell, DictDump, Hive, HiveId};
use beehive_net::FaultStats;

use crate::cluster::SimCluster;

/// One invariant violation: which checker, at which virtual tick, and what
/// it saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The checker that fired (`"ownership"`, `"registry"`,
    /// `"conservation"`, `"atomicity"`, `"traces"`, `"events"`).
    pub checker: &'static str,
    /// Virtual tick at which the audit was taken.
    pub tick: u64,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[tick {}] {}: {}", self.tick, self.checker, self.detail)
    }
}

/// Workload accounting absorbed from crashed hives. A crash legitimately
/// destroys messages (queued mail, unread socket buffers) and forgets
/// counters; the ledger folds them in at crash time so conservation still
/// balances afterwards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashLedger {
    /// `handled_ok` of crashed hives at crash time.
    pub handled: u64,
    /// `dead_letters` of crashed hives.
    pub dead: u64,
    /// `dropped_orphans` of crashed hives.
    pub orphans: u64,
    /// `lost_no_bee` of crashed hives.
    pub nobee: u64,
    /// Workload messages queued inside crashed hives (lost with them).
    pub queued: u64,
    /// Channel sequence numbers issued by crashed hives (`chan_sent` at
    /// crash time), kept so cluster-wide in-transit accounting survives the
    /// crash.
    pub chan_sent: u64,
    /// Channel deliveries recorded by crashed hives (`chan_delivered` at
    /// crash time).
    pub chan_delivered: u64,
    /// Channel envelopes expired by peer retirement on crashed hives —
    /// already dead-lettered there, so they must leave the in-transit term.
    pub chan_expired: u64,
    /// State shipments crashed hives sent, received and abandoned on the
    /// channel. The counts are in memory only, so a restart never hands
    /// them back ([`CrashLedger::restore`] leaves them).
    pub shipments: Shipments,
}

/// State shipments a hive sent, received and abandoned on its reliable
/// channel. The channel counts them among its sequences, but a shipment is
/// not a message, so [`ClusterAudit::in_transit`] takes them out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Shipments {
    /// Shipments sequenced toward peers.
    pub sent: u64,
    /// Shipments delivered from peers.
    pub delivered: u64,
    /// Unacked shipments abandoned because their peer departed.
    pub expired: u64,
}

impl Shipments {
    fn of(hive: &Hive) -> Self {
        let c = hive.counters();
        Shipments {
            sent: c.shipments_sent,
            delivered: c.shipments_delivered,
            expired: c.shipments_expired,
        }
    }

    fn add(&mut self, other: Shipments) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.expired += other.expired;
    }

    /// Sent, less delivered and expired: the shipments still on a channel.
    fn in_transit(&self) -> i128 {
        i128::from(self.sent) - i128::from(self.delivered) - i128::from(self.expired)
    }
}

impl CrashLedger {
    /// Folds a freshly crashed hive into the ledger: its counters, the
    /// workload messages (wire-type suffix `suffix`) still queued inside it,
    /// and its channel send/delivery accounting. Fabric frames cleared at
    /// crash time are *not* lost anymore — the senders' reliable channels
    /// retransmit them — so nothing else is absorbed.
    pub fn absorb(&mut self, hive: &Hive, suffix: &str) {
        let c = hive.counters();
        self.handled += c.handled_ok;
        self.dead += c.dead_letters;
        self.orphans += c.dropped_orphans;
        self.nobee += c.lost_no_bee;
        self.queued += hive.queued_messages(suffix).total();
        let ch = hive.channel_stats();
        self.chan_sent += ch.sent;
        self.chan_delivered += ch.delivered;
        self.chan_expired += ch.expired;
        self.shipments.add(Shipments::of(hive));
    }

    /// Subtracts a durably restarted hive's recovered channel accounting:
    /// its outbox journal restored the per-peer sequence and dedup state, so
    /// whatever the revived hive now reports again must come back out of the
    /// ledger to avoid double counting. Amnesiac restarts report zero and
    /// subtract nothing.
    pub fn restore(&mut self, hive: &Hive) {
        let ch = hive.channel_stats();
        self.chan_sent = self.chan_sent.saturating_sub(ch.sent);
        self.chan_delivered = self.chan_delivered.saturating_sub(ch.delivered);
        self.chan_expired = self.chan_expired.saturating_sub(ch.expired);
    }

    /// Total messages the ledger accounts for (channel counters excluded —
    /// they feed the in-transit term, not the consumed side).
    pub fn total(&self) -> u64 {
        self.handled + self.dead + self.orphans + self.nobee + self.queued
    }
}

/// One live hive's slice of a [`ClusterAudit`].
#[derive(Debug, Clone)]
pub struct HiveAudit {
    /// The hive.
    pub id: HiveId,
    /// Registry events applied locally (the relay fence).
    pub applied_seq: u64,
    /// FNV-1a digest of the serialized registry mirror.
    pub registry_digest: u64,
    /// Index the registry raft log has been compacted through. Recovery
    /// mechanism, not state — report-only (excluded from the digest fold,
    /// like `malformed_events`), but the snapshots checker bounds it by the
    /// applied fence.
    pub snapshot_index: u64,
    /// Registry snapshots installed from peers in this hive incarnation.
    /// Nonzero means this hive's registry mirror was (at least partly)
    /// snapshot-restored rather than log-replayed — and its
    /// `registry_digest` must still agree with every full-replay peer at the
    /// same `applied_seq`, which `check_registry_agreement` enforces.
    pub snapshot_installs: u64,
    /// Handler invocations that committed.
    pub handled: u64,
    /// Messages dead-lettered.
    pub dead: u64,
    /// Orphans dropped after TTL.
    pub orphans: u64,
    /// Messages lost because the addressed bee no longer exists.
    pub nobee: u64,
    /// Workload messages queued anywhere inside the hive.
    pub queued: u64,
    /// Channel sequence numbers issued toward peers (reliable-channel sends).
    pub chan_sent: u64,
    /// Channel deliveries accepted by dedup (monotonic across peer epochs).
    pub chan_delivered: u64,
    /// Channel envelopes expired by peer retirement (dead-lettered at the
    /// departed-peer boundary — they will never be delivered).
    pub chan_expired: u64,
    /// The state shipments among the channel counts above.
    pub shipments: Shipments,
    /// Channel frames retransmitted after an ack timeout.
    pub retransmits: u64,
    /// Duplicate channel frames suppressed by receiver dedup.
    pub dups_suppressed: u64,
    /// Active bees of the audited app with their colonies, sorted by bee id.
    pub colonies: Vec<(BeeId, Vec<Cell>)>,
    /// Per-bee dictionary contents, parallel to `colonies`.
    pub dicts: Vec<(BeeId, DictDump)>,
    /// Recorded trace spans that are structurally malformed (zero ids, or a
    /// span that is its own parent).
    pub malformed_spans: u64,
    /// Flight-recorder events whose JSON rendering failed the journal's
    /// self-audit (unbalanced quotes or raw control characters).
    pub malformed_events: u64,
}

/// A whole-cluster snapshot taken between virtual ticks, when no handler is
/// running and all in-flight work is visible in queues.
#[derive(Debug, Clone)]
pub struct ClusterAudit {
    /// Virtual tick of the snapshot.
    pub tick: u64,
    /// External workload messages emitted so far.
    pub emits: u64,
    /// One entry per live hive, in id order.
    pub live: Vec<HiveAudit>,
    /// Fabric fault accounting (drops, duplicates, reorders).
    pub fabric: FaultStats,
    /// App frames currently queued on the fabric.
    pub in_flight_app: u64,
    /// Accounting absorbed from crashed hives.
    pub ledger: CrashLedger,
}

/// Snapshots the cluster: counters, colonies and dictionaries of `app`,
/// queued workload messages (wire-type suffix `suffix`), registry digests
/// and fabric accounting. Call between ticks, after the cluster has been
/// stepped (so the cross-thread handle channels are drained).
pub fn gather(
    cluster: &SimCluster,
    app: &str,
    suffix: &str,
    tick: u64,
    emits: u64,
    ledger: &CrashLedger,
) -> ClusterAudit {
    let mut live = Vec::new();
    for hive in cluster.hives() {
        let c = hive.counters();
        let ch = hive.channel_stats();
        let colonies = hive.active_colonies(app);
        let dicts = colonies
            .iter()
            .map(|(bee, _)| (*bee, hive.audit_dicts(app, *bee)))
            .collect();
        let malformed_spans = hive
            .tracer()
            .snapshot()
            .iter()
            .filter(|s| s.trace_id == 0 || s.span_id == 0 || s.parent_span == s.span_id)
            .count() as u64;
        live.push(HiveAudit {
            id: hive.id(),
            applied_seq: hive.applied_seq(),
            registry_digest: hive.registry_digest(),
            snapshot_index: hive.registry_snapshot_index(),
            snapshot_installs: hive.registry_snapshot_installs(),
            handled: c.handled_ok,
            dead: c.dead_letters,
            orphans: c.dropped_orphans,
            nobee: c.lost_no_bee,
            queued: hive.queued_messages(suffix).total(),
            chan_sent: ch.sent,
            chan_delivered: ch.delivered,
            chan_expired: ch.expired,
            shipments: Shipments::of(hive),
            retransmits: ch.retransmits,
            dups_suppressed: ch.dups_suppressed,
            colonies,
            dicts,
            malformed_spans,
            malformed_events: hive.events().malformed(),
        });
    }
    live.sort_by_key(|a| a.id);
    ClusterAudit {
        tick,
        emits,
        live,
        fabric: cluster.fabric.fault_stats(),
        in_flight_app: cluster.fabric.in_flight_app(),
        ledger: *ledger,
    }
}

/// Ownership exclusivity: a cell must have at most one live active owner,
/// a bee must not be active on two hives, and a bee's state must hold only
/// entries of its own colony (itself or through its dictionary's whole
/// cell). Colonies being disjoint, the last makes state exclusive too.
pub fn check_ownership(audit: &ClusterAudit) -> Vec<Violation> {
    let violation = |detail: String| Violation {
        checker: "ownership",
        tick: audit.tick,
        detail,
    };
    let mut out = Vec::new();
    let mut cell_owners: BTreeMap<&Cell, Vec<(HiveId, BeeId)>> = BTreeMap::new();
    let mut bee_hives: BTreeMap<BeeId, Vec<HiveId>> = BTreeMap::new();
    for h in &audit.live {
        for (bee, colony) in &h.colonies {
            bee_hives.entry(*bee).or_default().push(h.id);
            for cell in colony {
                cell_owners.entry(cell).or_default().push((h.id, *bee));
            }
        }
        // `dicts` runs parallel to `colonies`.
        for ((bee, colony), (_, dicts)) in h.colonies.iter().zip(&h.dicts) {
            for (dict, entries) in dicts {
                let whole = colony.contains(&Cell::whole(dict.as_str()));
                for (key, _) in entries.iter().filter(|_| !whole) {
                    if !colony.contains(&Cell::new(dict.as_str(), key.as_str())) {
                        let hive = h.id;
                        out.push(violation(format!(
                            "{bee} on {hive} stores ({dict}, {key}) outside its colony"
                        )));
                    }
                }
            }
        }
    }
    for (cell, owners) in cell_owners {
        if owners.len() > 1 {
            out.push(violation(format!("cell {cell:?} owned by {owners:?}")));
        }
    }
    for (bee, hives) in bee_hives {
        if hives.len() > 1 {
            out.push(violation(format!("bee {bee} active on {hives:?}")));
        }
    }
    out
}

/// Registry agreement: hives with equal `applied_seq` applied the same
/// committed prefix and must hold byte-identical registry mirrors.
pub fn check_registry_agreement(audit: &ClusterAudit) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut by_seq: BTreeMap<u64, (HiveId, u64)> = BTreeMap::new();
    for h in &audit.live {
        match by_seq.get(&h.applied_seq) {
            None => {
                by_seq.insert(h.applied_seq, (h.id, h.registry_digest));
            }
            Some(&(other, digest)) if digest != h.registry_digest => {
                out.push(Violation {
                    checker: "registry",
                    tick: audit.tick,
                    detail: format!(
                        "hives {other} and {} both applied seq {} but disagree \
                         ({digest:#018x} vs {:#018x})",
                        h.id, h.applied_seq, h.registry_digest
                    ),
                });
            }
            Some(_) => {}
        }
    }
    out
}

/// Message conservation: every external emit must be handled, queued,
/// dead-lettered, dropped with a counter, absorbed by the crash ledger, or
/// still in transit on a reliable channel.
///
/// Fabric-level drops, duplicates and queued frames no longer enter the
/// equation: the channel layer retransmits drops, suppresses duplicates,
/// and owns every relayed frame from `wrap` to delivery — all of which is
/// captured by `in_transit = chan_sent − chan_delivered` (including crashed
/// hives' ledgered counts). The term is signed: an amnesiac receiver
/// restart legitimately re-delivers, making cumulative deliveries exceed
/// sends, with the double-handling showing up in `handled`.
pub fn check_conservation(audit: &ClusterAudit) -> Vec<Violation> {
    let live: u64 = audit
        .live
        .iter()
        .map(|h| h.handled + h.dead + h.orphans + h.nobee + h.queued)
        .sum();
    let in_transit = audit.in_transit();
    let consumed = i128::from(live) + i128::from(audit.ledger.total()) + in_transit;
    if i128::from(audit.emits) != consumed {
        let per_hive: Vec<String> = audit
            .live
            .iter()
            .map(|h| {
                format!(
                    "{}: handled={} dead={} orphans={} nobee={} queued={} \
                     chan_sent={} chan_delivered={} chan_expired={}",
                    h.id,
                    h.handled,
                    h.dead,
                    h.orphans,
                    h.nobee,
                    h.queued,
                    h.chan_sent,
                    h.chan_delivered,
                    h.chan_expired
                )
            })
            .collect();
        return vec![Violation {
            checker: "conservation",
            tick: audit.tick,
            detail: format!(
                "emits {} != live {} + ledger {} + in-transit {} (missing {}) [{}]",
                audit.emits,
                live,
                audit.ledger.total(),
                in_transit,
                i128::from(audit.emits) - consumed,
                per_hive.join("; ")
            ),
        }];
    }
    Vec::new()
}

/// Transaction atomicity: dictionaries `left` and `right` are written as a
/// pair inside every workload transaction, so for every bee and key the two
/// stored values must be identical — a mismatch means a torn transaction
/// (e.g. half a transaction surviving a crash-restart).
pub fn check_atomicity(audit: &ClusterAudit, left: &str, right: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for h in &audit.live {
        for (bee, dicts) in &h.dicts {
            let find = |name: &str| -> BTreeMap<&String, &Vec<u8>> {
                dicts
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, entries)| entries.iter().map(|(k, v)| (k, v)).collect())
                    .unwrap_or_default()
            };
            let l = find(left);
            let r = find(right);
            for (key, lv) in &l {
                if r.get(*key) != Some(lv) {
                    out.push(Violation {
                        checker: "atomicity",
                        tick: audit.tick,
                        detail: format!(
                            "hive {} bee {bee} key {key:?}: {left}={lv:?} but {right}={:?}",
                            h.id.0,
                            r.get(*key)
                        ),
                    });
                }
            }
            for key in r.keys() {
                if !l.contains_key(*key) {
                    out.push(Violation {
                        checker: "atomicity",
                        tick: audit.tick,
                        detail: format!(
                            "hive {} bee {bee} key {key:?}: {right} written without {left}",
                            h.id.0
                        ),
                    });
                }
            }
        }
    }
    out
}

/// Trace well-formedness: every recorded span has nonzero trace and span
/// ids and is not its own parent.
pub fn check_traces(audit: &ClusterAudit) -> Vec<Violation> {
    audit
        .live
        .iter()
        .filter(|h| h.malformed_spans > 0)
        .map(|h| Violation {
            checker: "traces",
            tick: audit.tick,
            detail: format!(
                "hive {}: {} malformed trace spans",
                h.id.0, h.malformed_spans
            ),
        })
        .collect()
}

/// Event-journal well-formedness: the flight recorder's self-audit must
/// never have counted a malformed JSON rendering. Unlike the other
/// counters this one is *not* folded into the digest — event volume is
/// timing-sensitive — but a nonzero malformed count is always a bug.
pub fn check_events(audit: &ClusterAudit) -> Vec<Violation> {
    audit
        .live
        .iter()
        .filter(|h| h.malformed_events > 0)
        .map(|h| Violation {
            checker: "events",
            tick: audit.tick,
            detail: format!(
                "hive {}: {} malformed flight-recorder events",
                h.id.0, h.malformed_events
            ),
        })
        .collect()
}

/// Snapshot/compaction sanity: the compaction horizon must never pass the
/// applied fence — a log truncated beyond what the state machine has applied
/// would leave a gap no replay can cross. Together with
/// [`check_registry_agreement`] (digests must match at equal `applied_seq`)
/// this is the snapshot-vs-replay equivalence invariant: a hive whose
/// mirror was restored from a shipped snapshot (`snapshot_installs > 0`)
/// participates in the same digest comparison as its full-replay peers, so
/// any divergence introduced by the snapshot path is caught the same tick.
pub fn check_snapshots(audit: &ClusterAudit) -> Vec<Violation> {
    audit
        .live
        .iter()
        .filter(|h| h.snapshot_index > h.applied_seq)
        .map(|h| Violation {
            checker: "snapshots",
            tick: audit.tick,
            detail: format!(
                "hive {}: compaction horizon {} is past the applied fence {}",
                h.id.0, h.snapshot_index, h.applied_seq
            ),
        })
        .collect()
}

/// Runs all seven checkers over one audit.
pub fn check_all(audit: &ClusterAudit, left: &str, right: &str) -> Vec<Violation> {
    let mut out = check_ownership(audit);
    out.extend(check_registry_agreement(audit));
    out.extend(check_conservation(audit));
    out.extend(check_atomicity(audit, left, right));
    out.extend(check_traces(audit));
    out.extend(check_events(audit));
    out.extend(check_snapshots(audit));
    out
}

/// An incrementally-fed FNV-1a 64-bit digest. Everything the chaos runner
/// observes folds into one of these; two runs of the same seed must finish
/// with identical values.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one u64 (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl ClusterAudit {
    /// Messages currently owned by reliable channels (sent but not yet
    /// accepted by receiver dedup), cluster-wide and including crashed
    /// hives' ledgered counts. State shipments ride the same channels but
    /// are not messages, so they are taken out. Negative when an amnesiac
    /// receiver restart caused legitimate re-deliveries.
    pub fn in_transit(&self) -> i128 {
        let sent: u64 = self.live.iter().map(|h| h.chan_sent).sum::<u64>() + self.ledger.chan_sent;
        let delivered: u64 =
            self.live.iter().map(|h| h.chan_delivered).sum::<u64>() + self.ledger.chan_delivered;
        // Envelopes expired by peer retirement were counted at send time but
        // will never be delivered — the retiring hive dead-lettered them, so
        // they re-enter the books through its `dead` counter instead.
        let expired: u64 =
            self.live.iter().map(|h| h.chan_expired).sum::<u64>() + self.ledger.chan_expired;
        let mut shipments = self.ledger.shipments;
        for h in &self.live {
            shipments.add(h.shipments);
        }
        i128::from(sent) - i128::from(delivered) - i128::from(expired) - shipments.in_transit()
    }

    /// Folds this audit into `d`. Deliberately excludes wall-clock times
    /// and span ids — the only values that legitimately differ between two
    /// runs of the same seed (span ids come from a process-global counter).
    /// Everything else — counters, registry digests, colony maps,
    /// dictionary bytes, fault accounting — must be identical, and
    /// therefore is folded.
    pub fn fold_into(&self, d: &mut Digest) {
        d.write_u64(self.tick);
        d.write_u64(self.emits);
        d.write_u64(self.live.len() as u64);
        for h in &self.live {
            d.write_u64(u64::from(h.id.0));
            d.write_u64(h.applied_seq);
            d.write_u64(h.registry_digest);
            d.write_u64(h.handled);
            d.write_u64(h.dead);
            d.write_u64(h.orphans);
            d.write_u64(h.nobee);
            d.write_u64(h.queued);
            d.write_u64(h.chan_sent);
            d.write_u64(h.chan_delivered);
            d.write_u64(h.chan_expired);
            d.write_u64(h.malformed_spans);
            d.write_u64(h.colonies.len() as u64);
            for (bee, colony) in &h.colonies {
                d.write_u64(bee.0);
                d.write_u64(colony.len() as u64);
                for cell in colony {
                    d.write(cell.dict.as_bytes());
                    d.write(&[0]);
                    d.write(cell.key.as_bytes());
                    d.write(&[0]);
                }
            }
            for (bee, dicts) in &h.dicts {
                d.write_u64(bee.0);
                d.write_u64(dicts.len() as u64);
                for (name, entries) in dicts {
                    d.write(name.as_bytes());
                    d.write(&[0]);
                    d.write_u64(entries.len() as u64);
                    for (k, v) in entries {
                        d.write(k.as_bytes());
                        d.write(&[0]);
                        d.write_u64(v.len() as u64);
                        d.write(v);
                    }
                }
            }
        }
        d.write_u64(self.fabric.dropped_app);
        d.write_u64(self.fabric.dropped_raft);
        d.write_u64(self.fabric.dropped_control);
        d.write_u64(self.fabric.duplicated_app);
        d.write_u64(self.fabric.duplicated_raft);
        d.write_u64(self.fabric.duplicated_control);
        d.write_u64(self.fabric.reordered);
        d.write_u64(self.in_flight_app);
        d.write_u64(self.ledger.total());
        d.write_u64(self.ledger.chan_sent);
        d.write_u64(self.ledger.chan_delivered);
        d.write_u64(self.ledger.chan_expired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_audit(tick: u64) -> ClusterAudit {
        ClusterAudit {
            tick,
            emits: 0,
            live: Vec::new(),
            fabric: FaultStats::default(),
            in_flight_app: 0,
            ledger: CrashLedger::default(),
        }
    }

    fn hive_audit(id: u32) -> HiveAudit {
        HiveAudit {
            id: HiveId(id),
            applied_seq: 0,
            registry_digest: 0,
            snapshot_index: 0,
            snapshot_installs: 0,
            handled: 0,
            dead: 0,
            orphans: 0,
            nobee: 0,
            queued: 0,
            chan_sent: 0,
            chan_delivered: 0,
            chan_expired: 0,
            shipments: Shipments::default(),
            retransmits: 0,
            dups_suppressed: 0,
            colonies: Vec::new(),
            dicts: Vec::new(),
            malformed_spans: 0,
            malformed_events: 0,
        }
    }

    #[test]
    fn ownership_flags_double_owned_cell() {
        let mut audit = empty_audit(3);
        let cell = Cell::new("d", "k");
        let mut h1 = hive_audit(1);
        h1.colonies = vec![(BeeId(11), vec![cell.clone()])];
        let mut h2 = hive_audit(2);
        h2.colonies = vec![(BeeId(22), vec![cell.clone()])];
        audit.live = vec![h1, h2];
        let v = check_ownership(&audit);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].checker, "ownership");
        assert_eq!(v[0].tick, 3);
    }

    #[test]
    fn ownership_flags_state_outside_the_colony() {
        let mut audit = empty_audit(0);
        let mut h1 = hive_audit(1);
        h1.colonies = vec![(BeeId(7), vec![Cell::new("d", "a"), Cell::whole("w")])];
        let entries = |keys: &[&str]| keys.iter().map(|k| (k.to_string(), vec![1])).collect();
        h1.dicts = vec![(
            BeeId(7),
            vec![
                ("d".to_string(), entries(&["a", "b"])),
                ("w".to_string(), entries(&["x", "y"])),
            ],
        )];
        audit.live = vec![h1];
        let v = check_ownership(&audit);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("stores (d, b) outside"), "{v:?}");
    }

    #[test]
    fn ownership_flags_bee_on_two_hives() {
        let mut audit = empty_audit(0);
        let mut h1 = hive_audit(1);
        h1.colonies = vec![(BeeId(7), vec![Cell::new("d", "a")])];
        let mut h2 = hive_audit(2);
        h2.colonies = vec![(BeeId(7), vec![Cell::new("d", "b")])];
        audit.live = vec![h1, h2];
        let v = check_ownership(&audit);
        assert!(v.iter().any(|v| v.detail.contains("active on")));
    }

    #[test]
    fn registry_agreement_only_compares_equal_seq() {
        let mut audit = empty_audit(0);
        let mut h1 = hive_audit(1);
        h1.applied_seq = 5;
        h1.registry_digest = 0xAA;
        let mut h2 = hive_audit(2);
        h2.applied_seq = 6; // lagging/ahead: different prefix, no comparison
        h2.registry_digest = 0xBB;
        audit.live = vec![h1.clone(), h2];
        assert!(check_registry_agreement(&audit).is_empty());
        let mut h3 = hive_audit(3);
        h3.applied_seq = 5;
        h3.registry_digest = 0xCC; // same prefix, different mirror: bug
        audit.live = vec![h1, h3];
        assert_eq!(check_registry_agreement(&audit).len(), 1);
    }

    #[test]
    fn conservation_balances_and_detects_loss() {
        let mut audit = empty_audit(0);
        audit.emits = 10;
        let mut h = hive_audit(1);
        h.handled = 6;
        h.queued = 1;
        h.chan_sent = 5;
        h.chan_delivered = 2; // 3 messages still owned by the channel
        audit.live = vec![h];
        // Fabric faults are masked by the channel and must not unbalance it.
        audit.fabric.dropped_app = 2;
        audit.fabric.duplicated_app = 4;
        audit.in_flight_app = 1;
        assert!(check_conservation(&audit).is_empty());
        audit.emits = 11; // one message now unaccounted for
        let v = check_conservation(&audit);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("missing 1"));
    }

    #[test]
    fn conservation_tolerates_redelivery_after_amnesiac_restart() {
        // A receiver that crashed without durable dedup state gets the
        // unacked message again: both deliveries count, `handled` doubles,
        // and the negative in-transit term balances the books.
        let mut audit = empty_audit(0);
        audit.emits = 1;
        let mut sender = hive_audit(2);
        sender.chan_sent = 1;
        let mut receiver = hive_audit(1);
        receiver.handled = 1; // the re-delivery, after restart
        receiver.chan_delivered = 1;
        audit.live = vec![receiver, sender];
        audit.ledger.handled = 1; // the first delivery, absorbed at crash
        audit.ledger.chan_delivered = 1;
        assert_eq!(audit.in_transit(), -1);
        assert!(check_conservation(&audit).is_empty());
    }

    #[test]
    fn conservation_subtracts_expired_channel_envelopes() {
        // A departed peer's unacked envelopes are dead-lettered by the
        // retiring sender: they leave the in-transit term via `chan_expired`
        // and re-enter the books as `dead`.
        let mut audit = empty_audit(0);
        audit.emits = 4;
        let mut h = hive_audit(1);
        h.handled = 2;
        h.dead = 2; // the retired envelopes
        h.chan_sent = 4;
        h.chan_delivered = 2;
        h.chan_expired = 2;
        audit.live = vec![h];
        assert_eq!(audit.in_transit(), 0);
        assert!(check_conservation(&audit).is_empty());
    }

    #[test]
    fn conservation_leaves_state_shipments_out_of_in_transit() {
        // Hive 1 sent three messages and three bees' state to hive 2. One
        // message and one shipment arrived, a crashed incarnation of hive 2
        // had received a second shipment, and the rest are still on the
        // channel. Only the two messages count as in transit.
        let mut audit = empty_audit(0);
        audit.emits = 3;
        let mut h1 = hive_audit(1);
        h1.chan_sent = 6;
        h1.shipments.sent = 3;
        let mut h2 = hive_audit(2);
        h2.handled = 1;
        h2.chan_delivered = 2;
        h2.shipments.delivered = 1;
        audit.live = vec![h1, h2];
        audit.ledger.chan_delivered = 1;
        audit.ledger.shipments.delivered = 1;
        assert_eq!(audit.in_transit(), 2);
        assert!(check_conservation(&audit).is_empty());
    }

    #[test]
    fn atomicity_flags_torn_pair() {
        let mut audit = empty_audit(0);
        let mut h = hive_audit(1);
        h.dicts = vec![(
            BeeId(1),
            vec![
                ("left".to_string(), vec![("k".to_string(), vec![2])]),
                ("right".to_string(), vec![("k".to_string(), vec![1])]),
            ],
        )];
        audit.live = vec![h];
        let v = check_atomicity(&audit, "left", "right");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].checker, "atomicity");
    }

    #[test]
    fn events_checker_flags_malformed_journal_entries() {
        let mut audit = empty_audit(9);
        let mut h = hive_audit(4);
        h.malformed_events = 2;
        audit.live = vec![hive_audit(1), h];
        let v = check_events(&audit);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].checker, "events");
        assert_eq!(v[0].tick, 9);
        assert!(v[0].detail.contains("hive 4"));
    }

    #[test]
    fn snapshots_checker_bounds_horizon_by_applied_fence() {
        let mut audit = empty_audit(5);
        let mut ok = hive_audit(1);
        ok.applied_seq = 10;
        ok.snapshot_index = 10; // compacted right up to the fence: legal
        ok.snapshot_installs = 2;
        audit.live = vec![ok];
        assert!(check_snapshots(&audit).is_empty());

        let mut bad = hive_audit(2);
        bad.applied_seq = 4;
        bad.snapshot_index = 7; // truncated past what was applied: a gap
        audit.live.push(bad);
        let v = check_snapshots(&audit);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].checker, "snapshots");
        assert_eq!(v[0].tick, 5);
        assert!(v[0].detail.contains("hive 2"));
    }

    #[test]
    fn snapshot_counters_do_not_perturb_the_digest() {
        // Like malformed_events: recovery-mechanism counters stay out of
        // the fold; the checkers (snapshots, registry agreement) gate on
        // them instead.
        let mut a = Digest::new();
        let mut b = Digest::new();
        let mut audit = empty_audit(1);
        audit.live = vec![hive_audit(1)];
        audit.fold_into(&mut a);
        audit.live[0].snapshot_index = 3;
        audit.live[0].snapshot_installs = 2;
        audit.fold_into(&mut b);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn malformed_events_do_not_perturb_the_digest() {
        // Event volume is timing-sensitive, so the journal's counters stay
        // out of the digest; only the checker gates on them.
        let mut a = Digest::new();
        let mut b = Digest::new();
        let mut audit = empty_audit(1);
        audit.live = vec![hive_audit(1)];
        audit.fold_into(&mut a);
        audit.live[0].malformed_events = 7;
        audit.fold_into(&mut b);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let mut a = Digest::new();
        let mut b = Digest::new();
        empty_audit(1).fold_into(&mut a);
        empty_audit(1).fold_into(&mut b);
        assert_eq!(a.finish(), b.finish());
        let mut c = Digest::new();
        empty_audit(2).fold_into(&mut c);
        assert_ne!(a.finish(), c.finish());
    }
}
