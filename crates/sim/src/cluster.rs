//! The simulated cluster: N hives on an accounted in-memory fabric, driven
//! in deterministic virtual time.

use std::sync::Arc;

use beehive_core::{Hive, HiveConfig, HiveId, LifecycleStage, SimClock};
use beehive_net::{ClearedFrames, FabricFaults, MemFabric, TrafficMatrix};

/// Parameters for a [`SimCluster`]: what the simulator owns, plus the
/// [`HiveConfig`] every hive is built from.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of hives (ids 1..=n).
    pub hives: usize,
    /// Number of registry Raft voters (first k hives, at least one); the
    /// rest are learners.
    pub voters: usize,
    /// Accounting bucket width (ms).
    pub bucket_ms: u64,
    /// Template for every hive's configuration: each hive gets a clone with
    /// its own `id`, `all_hives` and `registry_voters` filled in. Notes for
    /// simulated runs: `rng_seed` is the one number a whole cluster's random
    /// choices replay from (the chaos harness sets it per run); with
    /// `registry_storage_dir` set, [`SimCluster::restart`] exercises the
    /// durable-restart path and every committed registry event is
    /// snapshotted, so a restarted voter can restore its mirror alone
    /// (without it a crashed hive restarts amnesiac). To set a knob, spread
    /// from `ClusterConfig::default().hive`, not `HiveConfig::standalone(..)`:
    /// the simulator's template has `pending_retry_ms: 1000`, not 2000.
    pub hive: HiveConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            hives: 3,
            voters: 3,
            bucket_ms: 1000,
            hive: HiveConfig {
                pending_retry_ms: 1000,
                ..HiveConfig::standalone(HiveId(0))
            },
        }
    }
}

/// Builds one hive of the cluster from its config (also the restart path —
/// a restarted hive gets a brand-new `Hive` with the same config, so durable
/// registry state is all that survives, exactly like a process restart).
fn build_hive(
    cfg: &ClusterConfig,
    ids: &[HiveId],
    id: HiveId,
    clock: &SimClock,
    fabric: &MemFabric,
) -> Hive {
    let membership = HiveConfig::clustered(id, ids.to_vec(), cfg.voters);
    let mut hive_cfg = HiveConfig {
        id,
        all_hives: membership.all_hives,
        registry_voters: membership.registry_voters,
        ..cfg.hive.clone()
    };
    if hive_cfg.registry_storage_dir.is_some() {
        // A lone restarted voter can only restore its registry mirror from
        // a snapshot (the commit index is volatile), so snapshot every
        // committed event.
        hive_cfg.registry_snapshot_threshold = 1;
    }
    Hive::new(
        hive_cfg,
        Arc::new(clock.clone()),
        Box::new(fabric.endpoint(id)),
    )
}

/// A whole Beehive cluster in one process, in virtual time. Hives can be
/// crashed and restarted ([`SimCluster::crash`] / [`SimCluster::restart`]);
/// a down hive's slot stays reserved, so ids are stable.
pub struct SimCluster {
    /// The shared virtual clock.
    pub clock: SimClock,
    /// The accounted fabric.
    pub fabric: MemFabric,
    hives: Vec<Option<Hive>>,
    ids: Vec<HiveId>,
    cfg: ClusterConfig,
    install: Box<dyn FnMut(&mut Hive)>,
}

impl SimCluster {
    /// Builds the cluster and lets `install` add applications to each hive
    /// (it is kept around: a restarted hive is re-installed through it).
    pub fn new(cfg: ClusterConfig, mut install: impl FnMut(&mut Hive) + 'static) -> Self {
        assert!(cfg.hives >= 1);
        let ids: Vec<HiveId> = (1..=cfg.hives as u32).map(HiveId).collect();
        let clock = SimClock::new();
        let fabric = MemFabric::with_bucket(ids.clone(), Arc::new(clock.clone()), cfg.bucket_ms);
        let mut hives = Vec::with_capacity(cfg.hives);
        for &id in &ids {
            let mut hive = build_hive(&cfg, &ids, id, &clock, &fabric);
            install(&mut hive);
            hives.push(Some(hive));
        }
        SimCluster {
            clock,
            fabric,
            hives,
            ids,
            cfg,
            install: Box::new(install),
        }
    }

    /// Number of hive slots (live and down).
    pub fn len(&self) -> usize {
        self.hives.len()
    }

    /// Whether the cluster has no hives (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.hives.is_empty()
    }

    /// All hive ids (including down hives — ids are slot-stable).
    pub fn ids(&self) -> Vec<HiveId> {
        self.ids.clone()
    }

    /// Ids of the hives currently up, in id order.
    pub fn live_ids(&self) -> Vec<HiveId> {
        self.hives
            .iter()
            .filter_map(|h| h.as_ref().map(Hive::id))
            .collect()
    }

    /// Whether the hive is currently up.
    pub fn is_up(&self, id: HiveId) -> bool {
        self.hives[(id.0 - 1) as usize].is_some()
    }

    /// The hive with the given id. Panics if it is down.
    pub fn hive(&self, id: HiveId) -> &Hive {
        self.hives[(id.0 - 1) as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("hive {id} is down"))
    }

    /// Mutable access to a hive. Panics if it is down.
    pub fn hive_mut(&mut self, id: HiveId) -> &mut Hive {
        self.hives[(id.0 - 1) as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("hive {id} is down"))
    }

    /// Iterates the live hives.
    pub fn hives(&self) -> impl Iterator<Item = &Hive> {
        self.hives.iter().filter_map(Option::as_ref)
    }

    /// Crashes a hive: its in-memory state is torn down (returned for
    /// post-mortem accounting), its unread fabric queue is discarded, and
    /// the fabric drops frames addressed to it until [`SimCluster::restart`].
    /// Returns the dead hive and per-kind counts of the discarded frames.
    pub fn crash(&mut self, id: HiveId) -> (Hive, ClearedFrames) {
        let hive = self.hives[(id.0 - 1) as usize]
            .take()
            .unwrap_or_else(|| panic!("hive {id} is already down"));
        self.fabric.set_down(id, true);
        let cleared = self.fabric.clear_queue(id);
        (hive, cleared)
    }

    /// Restarts a crashed hive with the same configuration (including the
    /// durable registry storage dir, if any) and re-installs applications.
    pub fn restart(&mut self, id: HiveId) {
        let slot = (id.0 - 1) as usize;
        assert!(self.hives[slot].is_none(), "hive {id} is not down");
        self.fabric.set_down(id, false);
        let mut hive = build_hive(&self.cfg, &self.ids, id, &self.clock, &self.fabric);
        (self.install)(&mut hive);
        self.hives[slot] = Some(hive);
    }

    /// Boots a brand-new hive into the running cluster. The fabric learns
    /// it, the hive starts as a registry learner and announces itself over
    /// the membership protocol ([`Hive::begin_join`]); once caught up it
    /// requests promotion to voter on its own. Returns the new hive's id.
    pub fn join(&mut self) -> HiveId {
        let id = HiveId(self.hives.len() as u32 + 1);
        self.fabric.add_hive(id);
        let mut ids = self.ids.clone();
        ids.push(id);
        let mut hive = build_hive(&self.cfg, &ids, id, &self.clock, &self.fabric);
        (self.install)(&mut hive);
        hive.begin_join(&format!("sim://{}", id.0));
        self.ids.push(id);
        self.hives.push(Some(hive));
        id
    }

    /// Starts draining a live hive ([`Hive::begin_drain`]): its bees are
    /// evacuated onto survivors, its outbox flushed, and it leaves the
    /// registry configuration. Poll [`SimCluster::reap_departed`] to collect
    /// it once the staircase reaches `Departed`.
    pub fn drain(&mut self, id: HiveId) {
        self.hive_mut(id).begin_drain();
    }

    /// Removes hives that completed their drain (lifecycle `Departed`) from
    /// the cluster and the fabric, returning them for post-mortem
    /// accounting — their counters must be absorbed into the caller's
    /// ledger like a crashed hive's, minus the losses: a clean drain leaves
    /// nothing queued.
    pub fn reap_departed(&mut self) -> Vec<Hive> {
        let mut reaped = Vec::new();
        for slot in self.hives.iter_mut() {
            let departed = slot
                .as_ref()
                .is_some_and(|h| h.lifecycle().stage() == LifecycleStage::Departed);
            if departed {
                if let Some(hive) = slot.take() {
                    self.fabric.remove_hive(hive.id());
                    reaped.push(hive);
                }
            }
        }
        reaped
    }

    /// Steps every live hive once; returns total work done.
    pub fn step_all(&mut self) -> usize {
        self.hives
            .iter_mut()
            .filter_map(Option::as_mut)
            .map(|h| h.step())
            .sum()
    }

    /// Steps hives (and an external pump, e.g. a switch fleet) until
    /// everything is quiescent or `max_rounds` is hit. Returns total work.
    pub fn settle_with(&mut self, max_rounds: usize, mut pump: impl FnMut() -> usize) -> usize {
        let mut total = 0;
        for _ in 0..max_rounds {
            let w = self.step_all() + pump();
            total += w;
            if w == 0 && self.fabric.in_flight() == 0 {
                break;
            }
        }
        total
    }

    /// Steps until quiescent (no external pump).
    pub fn settle(&mut self, max_rounds: usize) -> usize {
        self.settle_with(max_rounds, || 0)
    }

    /// Advances virtual time by `ms` in `dt_ms` increments, settling after
    /// each increment (with an external pump).
    pub fn advance_with(&mut self, ms: u64, dt_ms: u64, mut pump: impl FnMut() -> usize) {
        let dt = dt_ms.max(1);
        let mut advanced = 0;
        while advanced < ms {
            let step = dt.min(ms - advanced);
            self.clock.advance(step);
            advanced += step;
            self.settle_with(10_000, &mut pump);
        }
    }

    /// Advances virtual time (no external pump).
    pub fn advance(&mut self, ms: u64, dt_ms: u64) {
        self.advance_with(ms, dt_ms, || 0);
    }

    /// Runs until a registry leader exists (clustered mode), up to `max_ms`
    /// virtual time. Returns the leader.
    pub fn elect_registry(&mut self, max_ms: u64) -> Result<HiveId, String> {
        let mut elapsed = 0;
        while elapsed < max_ms {
            self.clock.advance(50);
            elapsed += 50;
            self.settle(1000);
            if let Some(leader) = self
                .hives
                .iter()
                .filter_map(Option::as_ref)
                .find(|h| h.is_registry_leader())
            {
                return Ok(leader.id());
            }
        }
        Err(format!("no registry leader after {max_ms} virtual ms"))
    }

    /// Snapshot of the fabric's traffic accounting.
    pub fn matrix(&self) -> TrafficMatrix {
        self.fabric.matrix()
    }

    /// Applies a fault policy: wire faults (`drop_rate`, `latency_ms`) go to
    /// the fabric; handler faults are armed on every hive's fault table
    /// (each hive gets the full `times` budget — a colony lives on one hive,
    /// so the budget is consumed where the bee actually runs).
    pub fn set_faults(&mut self, faults: FabricFaults) {
        for (app, msg_type, times) in &faults.handler_faults {
            for hive in self.hives.iter_mut().filter_map(Option::as_mut) {
                hive.inject_handler_fault(app, msg_type, *times);
            }
        }
        self.fabric.set_faults(faults);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_core::prelude::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Inc {
        key: String,
    }
    beehive_core::impl_message!(Inc);

    fn counter_app() -> App {
        App::builder("counter")
            .handle::<Inc>(
                |m| Mapped::cell("c", &m.key),
                |m, ctx| {
                    let n: u64 = ctx.get("c", &m.key)?.unwrap_or(0);
                    ctx.put("c", m.key.clone(), &(n + 1))?;
                    Ok(())
                },
            )
            .build()
    }

    #[test]
    fn cluster_elects_registry_leader() {
        let mut c = SimCluster::new(
            ClusterConfig {
                hives: 3,
                voters: 3,
                ..Default::default()
            },
            |h| h.install(counter_app()),
        );
        let leader = c.elect_registry(60_000).unwrap();
        assert!(c.ids().contains(&leader));
    }

    #[test]
    fn messages_route_consistently_across_hives() {
        let mut c = SimCluster::new(
            ClusterConfig {
                hives: 3,
                voters: 3,
                ..Default::default()
            },
            |h| h.install(counter_app()),
        );
        c.elect_registry(60_000).unwrap();

        // The same key emitted on different hives must reach ONE bee.
        c.hive_mut(HiveId(1)).emit(Inc { key: "k".into() });
        c.hive_mut(HiveId(2)).emit(Inc { key: "k".into() });
        c.hive_mut(HiveId(3)).emit(Inc { key: "k".into() });
        c.advance(5_000, 50);

        let total_bees: usize = c.hives().map(|h| h.local_bee_count("counter")).sum();
        assert_eq!(total_bees, 1, "one colony for one key");
        let owner = c
            .hives()
            .find(|h| h.local_bee_count("counter") == 1)
            .map(|h| h.id())
            .unwrap();
        let (bee, _) = c.hive(owner).local_bees("counter")[0];
        let count: u64 = c.hive(owner).peek_state("counter", bee, "c", "k").unwrap();
        assert_eq!(count, 3, "all three increments applied");
    }

    /// With `registry_storage_dir` set the leader compacts at every commit.
    /// A follower cut off from the leader right after forwarding its
    /// proposals misses the entries that commit them, falls behind the
    /// compaction horizon and is served a snapshot, so it never sees the
    /// `Routed` echo of its own proposals: the installed snapshot itself
    /// has to release them. Nothing here runs long enough for a
    /// `pending_retry_ms` re-proposal to paper over a stuck route.
    #[test]
    fn routes_answered_by_a_snapshot_release_before_any_retry() {
        let dir =
            std::env::temp_dir().join(format!("beehive-sim-snaproute-{}", std::process::id()));
        let base = ClusterConfig::default();
        let retry_ms = base.hive.pending_retry_ms;
        let mut c = SimCluster::new(
            ClusterConfig {
                hive: HiveConfig {
                    tick_interval_ms: 0,
                    registry_storage_dir: Some(dir.clone()),
                    ..base.hive.clone()
                },
                ..base
            },
            |h| h.install(counter_app()),
        );
        let leader = c.elect_registry(60_000).unwrap();
        let slow = c.ids().into_iter().find(|&h| h != leader).unwrap();

        // Fewer rounds than the shortest election timeout (10 ticks of
        // `RAFT_TICK_MS`), so the slow hive never campaigns.
        const ROUNDS: u64 = 8;
        let mut emitted = 0;
        for round in 0..ROUNDS {
            for id in c.ids() {
                let key = format!("r{round}h{}", id.0);
                c.hive_mut(id).emit(Inc { key });
                emitted += 1;
            }
            // The slow hive's proposals reach the leader; the entries that
            // commit them do not.
            c.hive_mut(slow).step();
            c.fabric.partition(leader, slow);
            c.advance(50, 50);
            c.fabric.heal();
        }
        c.advance(retry_ms - ROUNDS * 50 - 100, 50);

        let installs: u64 = c.hives().map(|h| h.registry_snapshot_installs()).sum();
        assert!(installs > 0, "no follower was served a snapshot");
        for h in c.hives() {
            let q = h.queued_messages("Inc");
            assert_eq!(q.total(), 0, "hive-{} still holds messages: {q}", h.id().0);
        }
        let handled: u64 = c.hives().map(|h| h.counters().handled_ok).sum();
        assert_eq!(handled, emitted);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn learners_serve_local_lookups() {
        // 5 hives, 3 voters: hives 4 and 5 are learners but must still route.
        let mut c = SimCluster::new(
            ClusterConfig {
                hives: 5,
                voters: 3,
                ..Default::default()
            },
            |h| h.install(counter_app()),
        );
        c.elect_registry(60_000).unwrap();
        c.hive_mut(HiveId(5)).emit(Inc { key: "x".into() });
        c.advance(5_000, 50);
        // The bee was created on hive 5 (message origin).
        assert_eq!(c.hive(HiveId(5)).local_bee_count("counter"), 1);
        // A later message from hive 4 routes to hive 5's bee.
        c.hive_mut(HiveId(4)).emit(Inc { key: "x".into() });
        c.advance(5_000, 50);
        let (bee, _) = c.hive(HiveId(5)).local_bees("counter")[0];
        let count: u64 = c
            .hive(HiveId(5))
            .peek_state("counter", bee, "c", "x")
            .unwrap();
        assert_eq!(count, 2);
    }

    #[test]
    fn injected_handler_faults_are_retried_transparently() {
        let mut c = SimCluster::new(
            ClusterConfig {
                hives: 1,
                voters: 1,
                ..Default::default()
            },
            |h| h.install(counter_app()),
        );
        c.set_faults(FabricFaults::default().fail_handler("counter", "Inc", 1));
        c.hive_mut(HiveId(1)).emit(Inc { key: "k".into() });
        c.advance(2_000, 50);
        let (bee, _) = c.hive(HiveId(1)).local_bees("counter")[0];
        let count: u64 = c
            .hive(HiveId(1))
            .peek_state("counter", bee, "c", "k")
            .unwrap();
        assert_eq!(count, 1, "redelivery applied after the injected failure");
        assert!(c.hive(HiveId(1)).counters().redeliveries >= 1);
        assert_eq!(c.hive(HiveId(1)).handler_faults().armed(), 0);
    }

    #[test]
    fn crash_and_restart_cycle_keeps_slots_stable() {
        let mut c = SimCluster::new(
            ClusterConfig {
                hives: 3,
                voters: 3,
                ..Default::default()
            },
            |h| h.install(counter_app()),
        );
        c.elect_registry(60_000).unwrap();
        let (dead, _cleared) = c.crash(HiveId(2));
        assert_eq!(dead.id(), HiveId(2));
        assert!(!c.is_up(HiveId(2)));
        assert_eq!(c.live_ids(), vec![HiveId(1), HiveId(3)]);
        // The survivors keep running (quorum of 2/3 voters).
        c.advance(2_000, 50);
        c.restart(HiveId(2));
        assert!(c.is_up(HiveId(2)));
        assert_eq!(c.live_ids().len(), 3);
        // The restarted hive rejoins and serves traffic again.
        c.advance(5_000, 50);
        c.hive_mut(HiveId(2)).emit(Inc { key: "z".into() });
        c.advance(5_000, 50);
        let total: usize = c.hives().map(|h| h.local_bee_count("counter")).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn hive_joins_live_and_drains_out() {
        let mut c = SimCluster::new(
            ClusterConfig {
                hives: 3,
                voters: 3,
                ..Default::default()
            },
            |h| h.install(counter_app()),
        );
        c.elect_registry(60_000).unwrap();
        // Seed six colonies, all born on hive 1 (message origin).
        for k in 0..6 {
            c.hive_mut(HiveId(1)).emit(Inc {
                key: format!("k{k}"),
            });
        }
        c.advance(5_000, 50);
        assert_eq!(c.hive(HiveId(1)).local_bee_count("counter"), 6);

        // A fourth hive joins the running cluster and is promoted to voter.
        let new = c.join();
        assert_eq!(new, HiveId(4));
        c.advance(15_000, 50);
        assert_eq!(
            c.hive(new).lifecycle().stage(),
            LifecycleStage::Active,
            "joiner caught up and was promoted"
        );

        // Drain hive 1: its colonies evacuate and it departs cleanly.
        c.drain(HiveId(1));
        c.advance(30_000, 50);
        let reaped = c.reap_departed();
        assert_eq!(reaped.len(), 1, "hive 1 completed its drain");
        assert_eq!(reaped[0].id(), HiveId(1));
        assert_eq!(reaped[0].local_bee_count("counter"), 0, "all bees left");
        assert_eq!(
            reaped[0].channel_stats().outbox_depth,
            0,
            "outbox fully acked"
        );
        assert!(!c.live_ids().contains(&HiveId(1)));

        // Survivors own every colony exactly once and keep serving traffic.
        let total: usize = c.hives().map(|h| h.local_bee_count("counter")).sum();
        assert_eq!(total, 6, "every evacuated colony has exactly one owner");
        c.hive_mut(HiveId(2)).emit(Inc { key: "k1".into() });
        c.advance(5_000, 50);
        let owner = c
            .hives()
            .find(|h| {
                h.local_bees("counter")
                    .iter()
                    .any(|(b, _)| h.peek_state::<u64>("counter", *b, "c", "k1").is_some())
            })
            .expect("k1 has an owner");
        let (bee, _) = owner
            .local_bees("counter")
            .into_iter()
            .find(|(b, _)| owner.peek_state::<u64>("counter", *b, "c", "k1").is_some())
            .unwrap();
        let count: u64 = owner.peek_state("counter", bee, "c", "k1").unwrap();
        assert_eq!(count, 2, "state survived the evacuation");
    }

    #[test]
    fn fabric_accounts_inter_hive_traffic() {
        let mut c = SimCluster::new(
            ClusterConfig {
                hives: 3,
                voters: 3,
                ..Default::default()
            },
            |h| h.install(counter_app()),
        );
        c.elect_registry(60_000).unwrap();
        c.hive_mut(HiveId(2)).emit(Inc { key: "k".into() });
        c.advance(3_000, 50);
        let m = c.matrix();
        // Raft heartbeats alone guarantee nonzero traffic.
        assert!(m.total(&[beehive_core::FrameKind::Raft]) > 0);
    }
}
