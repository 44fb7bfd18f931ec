//! A deterministic virtual-time cluster for testing and benchmarking Raft.
//!
//! The harness owns every node, carries messages through per-link queues, and
//! supports seeded fault injection: message drops, fixed delays, partitions,
//! and node crashes/restarts (restart replays the node's persisted state).

use std::collections::{BTreeMap, HashSet, VecDeque};

use crate::config::Config;
use crate::node::{Outbound, ProposeError, RaftNode};
use crate::rng::SeededRng;
use crate::storage::SharedMemStorage;
use crate::types::{NodeId, RaftMessage};
use crate::StateMachine;

/// An in-flight message with its virtual delivery time.
#[derive(Debug, Clone)]
struct InFlight {
    deliver_at: u64,
    from: NodeId,
    to: NodeId,
    msg: RaftMessage,
}

/// Fault-injection knobs, adjustable between ticks.
#[derive(Debug, Clone)]
pub struct Faults {
    /// Probability in `[0, 1]` that any message is dropped.
    pub drop_rate: f64,
    /// Fixed delivery delay in ticks (on top of 1 tick minimum).
    pub delay: u64,
    /// Extra random delay in `[0, jitter]` ticks.
    pub jitter: u64,
}

impl Default for Faults {
    fn default() -> Self {
        Faults {
            drop_rate: 0.0,
            delay: 0,
            jitter: 0,
        }
    }
}

/// A whole Raft cluster in virtual time.
pub struct Cluster<SM: StateMachine> {
    nodes: BTreeMap<NodeId, RaftNode<SM>>,
    /// Every node's durable storage, retained across crashes.
    storages: BTreeMap<NodeId, SharedMemStorage>,
    /// Ids of currently crashed nodes.
    down: HashSet<NodeId>,
    queue: VecDeque<InFlight>,
    now: u64,
    rng: SeededRng,
    cfg: Config,
    make_sm: Box<dyn Fn() -> SM>,
    /// Pairs (a, b) that cannot communicate (both directions).
    partitions: HashSet<(NodeId, NodeId)>,
    /// Faults applied to every link.
    pub faults: Faults,
    /// Total messages delivered (for bandwidth-ish assertions).
    pub delivered: u64,
    /// Total payload bytes delivered.
    pub delivered_bytes: u64,
}

impl<SM: StateMachine> Cluster<SM> {
    /// Builds a cluster of `n` nodes with ids `1..=n`.
    pub fn new(n: usize, cfg: Config, seed: u64, make_sm: impl Fn() -> SM + 'static) -> Self {
        let ids: Vec<NodeId> = (1..=n as u64).collect();
        let mut nodes = BTreeMap::new();
        let mut storages = BTreeMap::new();
        for &id in &ids {
            let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p != id).collect();
            let node_cfg = Config {
                rng_seed: seed ^ (id << 32),
                ..cfg.clone()
            };
            let storage = SharedMemStorage::new();
            storages.insert(id, storage.handle());
            nodes.insert(
                id,
                RaftNode::new(id, peers, node_cfg, make_sm(), Box::new(storage)),
            );
        }
        Cluster {
            nodes,
            storages,
            down: HashSet::new(),
            queue: VecDeque::new(),
            now: 0,
            rng: SeededRng::seed_from_u64(seed),
            cfg,
            make_sm: Box::new(make_sm),
            partitions: HashSet::new(),
            faults: Faults::default(),
            delivered: 0,
            delivered_bytes: 0,
        }
    }

    /// Current virtual time in ticks.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Iterates over live nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &RaftNode<SM>> {
        self.nodes.values()
    }

    /// A live node by id.
    pub fn node(&self, id: NodeId) -> Option<&RaftNode<SM>> {
        self.nodes.get(&id)
    }

    /// Mutable access to a live node (e.g. to drain applied entries).
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut RaftNode<SM>> {
        self.nodes.get_mut(&id)
    }

    /// The current unique leader among live nodes, if exactly one exists at
    /// the maximum term.
    pub fn leader(&self) -> Option<NodeId> {
        let max_term = self.nodes.values().map(|n| n.term()).max()?;
        let leaders: Vec<NodeId> = self
            .nodes
            .values()
            .filter(|n| n.is_leader() && n.term() == max_term)
            .map(|n| n.id())
            .collect();
        if leaders.len() == 1 {
            Some(leaders[0])
        } else {
            None
        }
    }

    /// Proposes through node `id`.
    pub fn propose(&mut self, id: NodeId, data: Vec<u8>) -> Result<u64, ProposeError> {
        let node = self.nodes.get_mut(&id).expect("propose to live node");
        let (token, out) = node.propose_now(data)?;
        self.enqueue(id, out);
        Ok(token)
    }

    fn link_up(&self, a: NodeId, b: NodeId) -> bool {
        !self.partitions.contains(&(a.min(b), a.max(b)))
    }

    /// Severs the link between `a` and `b` (both directions).
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.partitions.insert((a.min(b), a.max(b)));
    }

    /// Isolates `id` from every other node.
    pub fn isolate(&mut self, id: NodeId) {
        let others: Vec<NodeId> = self.nodes.keys().copied().filter(|&p| p != id).collect();
        for o in others {
            self.partition(id, o);
        }
    }

    /// Heals all partitions.
    pub fn heal(&mut self) {
        self.partitions.clear();
    }

    /// Crashes a node: it stops processing, and its volatile state is lost.
    /// Its durable storage survives for [`Cluster::restart`].
    pub fn crash(&mut self, id: NodeId) {
        if self.nodes.remove(&id).is_some() {
            self.down.insert(id);
        }
        self.queue.retain(|m| m.to != id && m.from != id);
    }

    /// Restarts a crashed node from its durable storage.
    pub fn restart(&mut self, id: NodeId) {
        assert!(self.down.remove(&id), "restart a crashed node");
        let ids: Vec<NodeId> = self
            .nodes
            .keys()
            .copied()
            .chain(std::iter::once(id))
            .collect();
        let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p != id).collect();
        let node_cfg = Config {
            rng_seed: self.rng.next_u64(),
            ..self.cfg.clone()
        };
        let storage = self.storages.get(&id).expect("storage for node").handle();
        self.nodes.insert(
            id,
            RaftNode::new(id, peers, node_cfg, (self.make_sm)(), Box::new(storage)),
        );
    }

    fn enqueue(&mut self, from: NodeId, out: Vec<Outbound>) {
        for o in out {
            if !self.link_up(from, o.to) {
                continue;
            }
            if self.faults.drop_rate > 0.0 && self.rng.gen_bool(self.faults.drop_rate) {
                continue;
            }
            let jitter = if self.faults.jitter > 0 {
                self.rng.gen_range(0..=self.faults.jitter)
            } else {
                0
            };
            self.queue.push_back(InFlight {
                deliver_at: self.now + 1 + self.faults.delay + jitter,
                from,
                to: o.to,
                msg: o.msg,
            });
        }
    }

    /// Advances one tick: timers fire, then due messages deliver.
    pub fn tick(&mut self) {
        self.now += 1;
        // Timers.
        let ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        for id in ids {
            let out = self
                .nodes
                .get_mut(&id)
                .map(|n| n.tick())
                .unwrap_or_default();
            self.enqueue(id, out);
        }
        // Deliveries. Process the queue snapshot so new sends wait a tick.
        let mut pending = std::mem::take(&mut self.queue);
        let mut later = VecDeque::new();
        while let Some(m) = pending.pop_front() {
            if m.deliver_at > self.now {
                later.push_back(m);
                continue;
            }
            if !self.link_up(m.from, m.to) {
                continue;
            }
            if let Some(node) = self.nodes.get_mut(&m.to) {
                self.delivered += 1;
                self.delivered_bytes += m.msg.encoded_len() as u64;
                let out = node.step(m.from, m.msg);
                // Enqueue replies (they'll be considered next tick).
                for o in out {
                    later.push_back(InFlight {
                        deliver_at: self.now + 1 + self.faults.delay,
                        from: m.to,
                        to: o.to,
                        msg: o.msg,
                    });
                }
            }
        }
        // Re-apply faults policy to replies uniformly is skipped for
        // simplicity; partitions are enforced at delivery time.
        self.queue = later;
    }

    /// Runs `n` ticks.
    pub fn run_ticks(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Ticks until a unique leader exists, up to `max_ticks`.
    pub fn run_until_leader(&mut self, max_ticks: u64) -> Result<NodeId, String> {
        for _ in 0..max_ticks {
            self.tick();
            if let Some(l) = self.leader() {
                return Ok(l);
            }
        }
        Err(format!("no leader after {max_ticks} ticks"))
    }

    /// Ticks until `pred` holds, up to `max_ticks`.
    pub fn run_until(&mut self, max_ticks: u64, mut pred: impl FnMut(&Self) -> bool) -> bool {
        for _ in 0..max_ticks {
            self.tick();
            if pred(self) {
                return true;
            }
        }
        false
    }

    /// Asserts the election-safety invariant: at most one leader per term
    /// among live nodes.
    pub fn assert_at_most_one_leader_per_term(&self) {
        let mut by_term: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
        for n in self.nodes.values() {
            if n.is_leader() {
                by_term.entry(n.term()).or_default().push(n.id());
            }
        }
        for (term, leaders) in by_term {
            assert!(
                leaders.len() <= 1,
                "term {term} has multiple leaders: {leaders:?}"
            );
        }
    }

    /// Asserts log matching on committed prefixes: all pairs of live nodes
    /// agree on entries up to the minimum of their commit indices.
    pub fn assert_committed_logs_agree(&self) {
        let nodes: Vec<&RaftNode<SM>> = self.nodes.values().collect();
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                let (a, b) = (nodes[i], nodes[j]);
                let upto = a.commit_index().min(b.commit_index());
                let from = a.log().first_index().max(b.log().first_index());
                for idx in from..=upto {
                    let (ea, eb) = (a.log().entry_at(idx), b.log().entry_at(idx));
                    if let (Some(ea), Some(eb)) = (ea, eb) {
                        assert_eq!(
                            (ea.term, &ea.data),
                            (eb.term, &eb.data),
                            "nodes {} and {} disagree at committed index {idx}",
                            a.id(),
                            b.id()
                        );
                    }
                }
            }
        }
    }
}
