//! The leader's one send path, [`RaftNode::replicate`], driven by hand with
//! no ticks at all: a commit reaches every follower as soon as the acks
//! that make it arrive, progress never moves back on a late ack, and a
//! lost AppendEntries is repaired by the rejection the next one draws.

use std::collections::{HashMap, VecDeque};

use beehive_raft::{Config, KvCounter, LogIndex, NodeId, Outbound, RaftMessage, RaftNode};

/// Voters `1..=n`, hand-delivered in FIFO order. Node 1 leads.
struct Group {
    nodes: Vec<RaftNode<KvCounter>>,
    queue: VecDeque<(NodeId, NodeId, RaftMessage)>,
    /// How many AppendEntries carried each (follower, index).
    carried: HashMap<(NodeId, LogIndex), usize>,
    /// Rejected AppendEntries, per follower.
    rejections: HashMap<NodeId, usize>,
}

impl Group {
    fn new(n: u64) -> Self {
        let nodes = (1..=n)
            .map(|id| {
                let peers = (1..=n).filter(|&p| p != id).collect();
                let cfg = Config {
                    rng_seed: id,
                    ..Config::default()
                };
                RaftNode::new(
                    id,
                    peers,
                    cfg,
                    KvCounter::default(),
                    Box::new(beehive_raft::SharedMemStorage::new()),
                )
            })
            .collect();
        let mut g = Group {
            nodes,
            queue: VecDeque::new(),
            carried: HashMap::new(),
            rejections: HashMap::new(),
        };
        let out = g.node(1).campaign();
        g.send(1, out);
        g.deliver_all();
        assert!(g.node(1).is_leader());
        g
    }

    fn node(&mut self, id: NodeId) -> &mut RaftNode<KvCounter> {
        &mut self.nodes[(id - 1) as usize]
    }

    fn followers(&self) -> Vec<NodeId> {
        (2..=self.nodes.len() as u64).collect()
    }

    fn send(&mut self, from: NodeId, out: Vec<Outbound>) {
        for o in out {
            match &o.msg {
                RaftMessage::AppendEntries { entries, .. } => {
                    for e in entries {
                        *self.carried.entry((o.to, e.index)).or_default() += 1;
                    }
                }
                RaftMessage::AppendEntriesResp { success: false, .. } => {
                    *self.rejections.entry(from).or_default() += 1;
                }
                _ => {}
            }
            self.queue.push_back((from, o.to, o.msg));
        }
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, msg: RaftMessage) {
        let out = self.node(to).step(from, msg);
        self.send(to, out);
    }

    fn deliver_all(&mut self) {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            self.deliver(from, to, msg);
        }
    }

    fn propose(&mut self, byte: u8) -> LogIndex {
        let out = self.node(1).propose_now(vec![byte]).unwrap().1;
        self.send(1, out);
        self.node(1).log().last_index()
    }
}

#[test]
fn an_entry_commits_on_every_follower_without_a_tick() {
    for n in [2, 3] {
        let mut g = Group::new(n);
        let index = g.propose(7);
        g.deliver_all();
        for f in g.followers() {
            let node = g.node(f);
            assert!(
                node.commit_index() >= index,
                "{n} voters: follower {f} commits through {}, not {index}",
                node.commit_index()
            );
            assert_eq!(node.state_machine().total, 7, "{n} voters: follower {f}");
        }
    }
}

#[test]
fn late_out_of_order_acks_move_nothing_back_and_nothing_is_sent_twice() {
    let mut g = Group::new(3);
    let first = g.node(1).log().last_index() + 1;
    for b in 1..=8 {
        g.propose(b);
    }
    let last = g.node(1).log().last_index();
    assert_eq!(last, first + 7);

    // Every follower gets every AppendEntries; the acks are held back.
    let mut acks = Vec::new();
    while let Some((from, to, msg)) = g.queue.pop_front() {
        let out = g.node(to).step(from, msg);
        acks.extend(out.into_iter().map(|o| (to, o.to, o.msg)));
    }
    assert_eq!(acks.len(), 16);

    // They come back newest first, interleaved across followers.
    acks.reverse();
    acks.rotate_left(5);
    let mut seen: HashMap<NodeId, (LogIndex, LogIndex)> = HashMap::new();
    for (from, to, msg) in acks {
        g.deliver(from, to, msg);
        g.deliver_all();
        for f in g.followers() {
            let now = g.node(1).progress(f).expect("leader tracks follower");
            let before = seen.insert(f, now).unwrap_or((0, 0));
            assert!(
                now.0 >= before.0 && now.1 >= before.1,
                "follower {f}: (next, matched) went from {before:?} to {now:?}"
            );
        }
    }

    for f in g.followers() {
        assert_eq!(g.node(1).progress(f), Some((last + 1, last)));
        assert_eq!(g.node(f).commit_index(), last);
        for index in first..=last {
            assert_eq!(
                g.carried.get(&(f, index)),
                Some(&1),
                "entry {index} reached follower {f} in {:?} AppendEntries",
                g.carried.get(&(f, index))
            );
        }
    }
}

#[test]
fn a_dropped_append_is_repaired_by_rejection_and_resend_without_a_tick() {
    let mut g = Group::new(3);
    let lost = g.propose(1);
    // Follower 2 never sees the entry; follower 3 does.
    g.queue.retain(|(_, to, _)| *to != 2);
    g.deliver_all();
    assert_eq!(g.node(2).log().last_index(), lost - 1);

    // The next entry's AppendEntries does not fit follower 2's log.
    let index = g.propose(2);
    g.deliver_all();

    // Sent twice: the dropped copy and the one resend.
    assert_eq!(g.rejections.get(&2), Some(&1));
    assert_eq!(g.carried.get(&(2, lost)), Some(&2));
    assert_eq!(g.node(1).commit_index(), index);
    for f in g.followers() {
        let node = g.node(f);
        assert_eq!(node.log().last_index(), index, "follower {f}");
        assert_eq!(node.commit_index(), index, "follower {f}");
        assert_eq!(node.state_machine().total, 3, "follower {f}");
    }
}
