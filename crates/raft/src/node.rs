//! The sans-IO Raft node: pure state transitions driven by `tick` and `step`.

use std::collections::{HashMap, HashSet};

use crate::config::Config;
use crate::log::RaftLog;
use crate::rng::SeededRng;
use crate::storage::{HardState, SnapshotRecord, Storage, StorageError};

use crate::types::{
    ConfChange, ConfChangeKind, Entry, EntryKind, LogIndex, NodeId, RaftMessage, Term,
};
use crate::StateMachine;

/// What a snapshot actually carries on the wire and on disk: the membership
/// configuration at the snapshot point plus the serialized state machine.
/// Configuration must ride snapshots — a joiner that catches up via
/// `InstallSnapshot` would otherwise never learn who the members are.
struct SnapshotBlob {
    voters: Vec<NodeId>,
    learners: Vec<NodeId>,
    data: Vec<u8>,
}

beehive_wire::wire_struct!(SnapshotBlob {
    voters,
    learners,
    data: bytes
});

/// A node's current role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Passive replica (Raft §5.2).
    Follower,
    /// Probing whether a real election could succeed (pre-vote, §9.6).
    PreCandidate,
    /// Soliciting votes after an election timeout.
    Candidate,
    /// The (unique per term) log authority.
    Leader,
}

/// A message the embedder must deliver to `to`.
#[derive(Debug, Clone)]
pub struct Outbound {
    /// Destination node.
    pub to: NodeId,
    /// The RPC payload.
    pub msg: RaftMessage,
}

/// A committed entry that has been applied to the local state machine.
#[derive(Debug, Clone)]
pub struct Applied<O> {
    /// Log index of the applied entry.
    pub index: LogIndex,
    /// Term of the applied entry.
    pub term: Term,
    /// Correlation token if this node proposed the entry (see
    /// [`RaftNode::propose`]).
    pub token: Option<u64>,
    /// The state machine's output for the entry.
    pub output: O,
}

/// Why a proposal was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProposeError {
    /// Only leaders accept proposals; the hint (if any) names the likely
    /// leader for the embedder to forward to.
    NotLeader(Option<NodeId>),
    /// A membership change is already in the log but not yet applied; only
    /// one may be in flight at a time (single-server change safety).
    ConfChangeInFlight,
}

impl std::fmt::Display for ProposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProposeError::NotLeader(hint) => write!(f, "not the leader (hint: {hint:?})"),
            ProposeError::ConfChangeInFlight => {
                write!(f, "a membership change is already in flight")
            }
        }
    }
}

impl std::error::Error for ProposeError {}

/// Where the leader stands with one replication target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Where the peer's log matches the leader's is unknown: the next
    /// [`RaftNode::replicate`] sends one AppendEntries (or a snapshot) at
    /// `next`.
    Probe,
    /// That probe is out. Nothing more goes to the peer until it answers,
    /// or the heartbeat sends the probe again.
    ProbeSent,
    /// The peer's log matches through `matched`: entries stream to it as
    /// they are appended, at most `max_entries_per_append` beyond `matched`.
    Replicate,
}

/// The leader's record of one replication target.
#[derive(Debug, Clone, Copy)]
struct Progress {
    /// The next index to send. It advances as entries leave; only a
    /// rejection's conflict hint moves it back.
    next: LogIndex,
    /// The highest index the peer acknowledged holding. Never decreases.
    matched: LogIndex,
    /// The commit index the peer can reach from what it has been sent.
    commit_sent: LogIndex,
    flow: Flow,
}

impl Progress {
    fn probe(next: LogIndex) -> Self {
        Progress {
            next,
            matched: 0,
            commit_sent: 0,
            flow: Flow::Probe,
        }
    }

    /// The peer holds the leader's log through `index`. Nothing moves
    /// back on an ack older than one already seen. An ack that covers the
    /// probe's `prev` index ends the probe.
    fn acked(&mut self, index: LogIndex) {
        self.matched = self.matched.max(index);
        if index + 1 >= self.next {
            self.flow = Flow::Replicate;
        }
        self.next = self.next.max(index + 1);
    }

    /// The peer refused an AppendEntries and hinted that its log diverges
    /// from `hint` on. Returns whether `next` moved back to probe there. A
    /// hint at or past `next` answers a message sent before the last reset
    /// and is ignored. A streaming peer is first probed just past what it
    /// acknowledged; only a probe's refusal moves `next` below that, which
    /// is how a peer that restarted with an empty disk gets its log again.
    fn refused(&mut self, hint: LogIndex) -> bool {
        if hint == 0 || hint >= self.next {
            return false;
        }
        self.next = match self.flow {
            Flow::Replicate => hint.max(self.matched + 1),
            Flow::Probe | Flow::ProbeSent => hint,
        };
        self.flow = Flow::Probe;
        true
    }
}

/// A Raft consensus participant bound to a replicated [`StateMachine`].
pub struct RaftNode<SM: StateMachine> {
    id: NodeId,
    /// Other voting members.
    peers: Vec<NodeId>,
    /// Non-voting members (learners): replicated to, never counted for
    /// quorum, never campaign. Beehive registers non-registry-voter hives as
    /// learners so every hive can serve cell lookups from a local mirror.
    learners: Vec<NodeId>,
    /// Whether this node itself is a learner.
    is_learner: bool,
    cfg: Config,
    rng: SeededRng,

    role: Role,
    term: Term,
    voted_for: Option<NodeId>,
    leader_hint: Option<NodeId>,

    log: RaftLog,
    commit_index: LogIndex,
    last_applied: LogIndex,
    sm: SM,
    storage: Box<dyn Storage>,

    election_elapsed: u64,
    randomized_timeout: u64,
    heartbeat_elapsed: u64,

    votes: HashSet<NodeId>,
    pre_votes: HashSet<NodeId>,
    /// Leader-only: replication progress per voter and learner peer.
    progress: HashMap<NodeId, Progress>,

    next_token: u64,
    pending: HashMap<LogIndex, (Term, u64)>,
    applied_buf: Vec<Applied<SM::Output>>,
    /// Set once a committed [`ConfChangeKind::RemoveNode`] named this node;
    /// a removed node stops campaigning and the embedder retires it.
    removed: bool,
    /// Committed membership changes not yet drained by the embedder
    /// ([`RaftNode::take_conf_changes`]).
    conf_changes: Vec<ConfChange>,
    /// First durable-storage failure. Once set the node is inert (fail-stop):
    /// its persisted state may trail its in-memory state, so voting,
    /// campaigning or acking appends could violate election/log safety. The
    /// embedder polls [`RaftNode::storage_fault`], records the event, and
    /// halts.
    fatal: Option<StorageError>,
    /// Snapshots this node has taken locally (compactions).
    snapshots_taken: u64,
    /// Snapshots this node has restored from a leader's `InstallSnapshot`.
    snapshots_installed: u64,
}

impl<SM: StateMachine> RaftNode<SM> {
    /// Creates a voting node. `peers` lists the *other* voting members.
    /// Persisted state in `storage` (if any) is restored.
    pub fn new(
        id: NodeId,
        peers: Vec<NodeId>,
        cfg: Config,
        sm: SM,
        storage: Box<dyn Storage>,
    ) -> Self {
        Self::with_membership(id, peers, Vec::new(), false, cfg, sm, storage)
    }

    /// Creates a non-voting learner that follows the `voters` group: it
    /// receives and applies the log but never votes or campaigns.
    pub fn new_learner(
        id: NodeId,
        voters: Vec<NodeId>,
        cfg: Config,
        sm: SM,
        storage: Box<dyn Storage>,
    ) -> Self {
        Self::with_membership(id, voters, Vec::new(), true, cfg, sm, storage)
    }

    /// Full-control constructor: `peers` are the other voters, `learners` the
    /// non-voting members this node (when leading) must replicate to.
    pub fn with_membership(
        id: NodeId,
        peers: Vec<NodeId>,
        learners: Vec<NodeId>,
        is_learner: bool,
        cfg: Config,
        sm: SM,
        storage: Box<dyn Storage>,
    ) -> Self {
        cfg.validate().expect("invalid raft config");
        debug_assert!(!peers.contains(&id), "peers must not include self");
        debug_assert!(!learners.contains(&id), "learners must not include self");
        let mut node = RaftNode {
            rng: SeededRng::seed_from_u64(cfg.rng_seed ^ id.wrapping_mul(0x9E3779B97F4A7C15)),
            id,
            peers,
            learners,
            is_learner,
            cfg,
            role: Role::Follower,
            term: 0,
            voted_for: None,
            leader_hint: None,
            log: RaftLog::new(),
            commit_index: 0,
            last_applied: 0,
            sm,
            storage,
            election_elapsed: 0,
            randomized_timeout: 0,
            heartbeat_elapsed: 0,
            votes: HashSet::new(),
            pre_votes: HashSet::new(),
            progress: HashMap::new(),
            next_token: 1,
            pending: HashMap::new(),
            applied_buf: Vec::new(),
            removed: false,
            conf_changes: Vec::new(),
            fatal: None,
            snapshots_taken: 0,
            snapshots_installed: 0,
        };
        match node.storage.load() {
            Ok(Some(persisted)) => {
                node.term = persisted.hard_state.term;
                node.voted_for = persisted.hard_state.voted_for;
                node.log = RaftLog::from_parts(
                    persisted.snapshot_index,
                    persisted.snapshot_term,
                    persisted.entries,
                );
                if let Some(snap) = persisted.snapshot {
                    node.restore_snapshot(&snap.data);
                    node.commit_index = snap.index;
                    node.last_applied = snap.index;
                }
            }
            Ok(None) => {}
            // Untrusted persisted state: the node must not participate with
            // a forgotten vote or truncated log. It comes up inert and the
            // embedder decides how loudly to die.
            Err(e) => node.fatal = Some(e),
        }
        node.reset_election_timer();
        // A fresh group's lowest voter campaigns on its first tick instead
        // of waiting out a timeout (CockroachDB campaigns eagerly on a new
        // range the same way). Pre-vote keeps this safe for a voter that
        // lost its disk: peers that still hear a leader deny it.
        let fresh = node.term == 0 && node.log.last_index() == 0;
        if fresh && !node.is_learner && node.peers.iter().all(|&p| p > id) {
            node.election_elapsed = node.randomized_timeout;
        }
        node
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Whether this node currently believes it is the leader. A node with a
    /// latched storage fault never advertises leadership, even if it held
    /// (or just won) the role in memory: leadership it cannot persist is
    /// leadership it must not exercise.
    pub fn is_leader(&self) -> bool {
        self.fatal.is_none() && self.role == Role::Leader
    }

    /// The first durable-storage failure, if any. A faulted node is inert:
    /// `tick`/`step` emit nothing and proposals are refused, because acting
    /// on state that may not be persisted can elect two leaders in one term
    /// or un-ack replicated entries. Fail-stop is the only safe response.
    pub fn storage_fault(&self) -> Option<&StorageError> {
        self.fatal.as_ref()
    }

    /// The index the log has been compacted up to (0 before any snapshot).
    pub fn snapshot_index(&self) -> LogIndex {
        self.log.snapshot_index()
    }

    /// How many entries the local state machine has applied beyond the last
    /// local snapshot — the log replay a restart would need.
    pub fn snapshot_lag(&self) -> u64 {
        self.last_applied.saturating_sub(self.log.snapshot_index())
    }

    /// Snapshots taken locally (log compactions).
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots_taken
    }

    /// Snapshots restored from a leader via `InstallSnapshot`.
    pub fn snapshots_installed(&self) -> u64 {
        self.snapshots_installed
    }

    /// Whether this node is a non-voting learner.
    pub fn is_learner(&self) -> bool {
        self.is_learner
    }

    /// Current term.
    pub fn term(&self) -> Term {
        self.term
    }

    /// Highest committed index.
    pub fn commit_index(&self) -> LogIndex {
        self.commit_index
    }

    /// Highest applied index.
    pub fn last_applied(&self) -> LogIndex {
        self.last_applied
    }

    /// On a leader, its replication progress toward `peer`: the next index
    /// it will send and the highest index the peer acknowledged holding.
    /// `None` on a non-leader or for a node it does not replicate to.
    pub fn progress(&self, peer: NodeId) -> Option<(LogIndex, LogIndex)> {
        if self.role != Role::Leader {
            return None;
        }
        self.progress.get(&peer).map(|p| (p.next, p.matched))
    }

    /// The node this one believes to be leader (itself when leading).
    pub fn leader_hint(&self) -> Option<NodeId> {
        if self.role == Role::Leader {
            Some(self.id)
        } else {
            self.leader_hint
        }
    }

    /// Read-only view of the local state machine. Reads through this view on
    /// a non-leader may be stale; Beehive routes linearizable operations
    /// through [`RaftNode::propose`].
    pub fn state_machine(&self) -> &SM {
        &self.sm
    }

    /// The local log (inspection/testing).
    pub fn log(&self) -> &RaftLog {
        &self.log
    }

    /// Cluster size including self.
    pub fn cluster_size(&self) -> usize {
        self.peers.len() + 1
    }

    fn majority(&self) -> usize {
        self.cluster_size() / 2 + 1
    }

    /// Drains entries applied since the last call.
    pub fn take_applied(&mut self) -> Vec<Applied<SM::Output>> {
        std::mem::take(&mut self.applied_buf)
    }

    /// Drains membership changes committed (and applied to this node's
    /// configuration) since the last call, in commit order. The embedder
    /// reacts by adding/removing transport peers, announcing the change, etc.
    pub fn take_conf_changes(&mut self) -> Vec<ConfChange> {
        std::mem::take(&mut self.conf_changes)
    }

    /// Whether a committed `RemoveNode` has named this node: it no longer
    /// belongs to the configuration and should be retired by the embedder.
    pub fn removed(&self) -> bool {
        self.removed
    }

    /// The current voting members, including this node when it votes.
    pub fn voters(&self) -> Vec<NodeId> {
        let mut v = self.peers.clone();
        if !self.is_learner && !self.removed {
            v.push(self.id);
        }
        v.sort_unstable();
        v
    }

    /// The current non-voting learners this configuration replicates to
    /// (excluding this node; check [`RaftNode::is_learner`] for self).
    pub fn learners(&self) -> &[NodeId] {
        &self.learners
    }

    /// Whether an appended membership change has not yet been applied.
    /// While one is in flight, [`RaftNode::propose_conf_change`] refuses
    /// further changes (single-server change safety: any two successive
    /// configurations share a quorum).
    pub fn conf_change_in_flight(&self) -> bool {
        let mut idx = self.log.last_index();
        while idx > self.last_applied && idx > self.log.snapshot_index() {
            if self
                .log
                .entry_at(idx)
                .is_some_and(|e| e.kind == EntryKind::ConfChange)
            {
                return true;
            }
            idx -= 1;
        }
        false
    }

    /// Proposes a single-node membership change. Leader-only; refuses while
    /// another change is in flight. The change is applied by every member
    /// when the entry commits and surfaces through
    /// [`RaftNode::take_conf_changes`].
    pub fn propose_conf_change(
        &mut self,
        cc: &ConfChange,
    ) -> Result<(u64, Vec<Outbound>), ProposeError> {
        if self.fatal.is_some() || self.role != Role::Leader {
            return Err(ProposeError::NotLeader(self.leader_hint()));
        }
        if self.conf_change_in_flight() {
            return Err(ProposeError::ConfChangeInFlight);
        }
        let index = self
            .log
            .append_new(self.term, cc.encode(), EntryKind::ConfChange);
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(index, (self.term, token));
        self.persist_log();
        self.advance_commit();
        Ok((token, self.replicate()))
    }

    /// Starts a leadership transfer to `to` (a voter): if the target's log
    /// is caught up it is told to campaign immediately via
    /// [`RaftMessage::TimeoutNow`]; otherwise the missing entries are shipped
    /// and the embedder retries once the target catches up. No-op on
    /// non-leaders. Used by a draining leader to hand off before demoting
    /// itself.
    pub fn transfer_leadership(&mut self, to: NodeId) -> Vec<Outbound> {
        if self.fatal.is_some() || self.role != Role::Leader || !self.peers.contains(&to) {
            return Vec::new();
        }
        if self.progress.get(&to).map_or(0, |p| p.matched) >= self.log.last_index() {
            vec![Outbound {
                to,
                msg: RaftMessage::TimeoutNow { term: self.term },
            }]
        } else {
            self.replicate()
        }
    }

    /// Advances logical time by one tick, possibly starting an election or
    /// emitting heartbeats.
    pub fn tick(&mut self) -> Vec<Outbound> {
        if self.fatal.is_some() {
            return Vec::new();
        }
        let out = self.tick_inner();
        // A persist failure during the tick (e.g. the self-vote of a fresh
        // election) means the messages describe state that never reached
        // disk — suppress them and go inert.
        if self.fatal.is_some() {
            return Vec::new();
        }
        out
    }

    fn tick_inner(&mut self) -> Vec<Outbound> {
        match self.role {
            Role::Leader => {
                self.heartbeat_elapsed += 1;
                if self.heartbeat_elapsed >= self.cfg.heartbeat_interval {
                    self.heartbeat_elapsed = 0;
                    return self.send_to_all(true);
                }
                Vec::new()
            }
            Role::Follower | Role::Candidate | Role::PreCandidate => {
                if self.is_learner {
                    // Learners never campaign.
                    return Vec::new();
                }
                self.election_elapsed += 1;
                if self.election_elapsed >= self.randomized_timeout {
                    if self.cfg.pre_vote {
                        return self.start_pre_vote();
                    }
                    return self.start_election();
                }
                Vec::new()
            }
        }
    }

    /// Starts an election now instead of waiting out the election timeout.
    /// A lone voter wins it at once, so its proposals commit and apply
    /// inside [`RaftNode::propose`]. Does nothing on a node with a latched
    /// storage fault, a learner, or a removed node.
    pub fn campaign(&mut self) -> Vec<Outbound> {
        if self.fatal.is_some() || self.is_learner || self.removed {
            return Vec::new();
        }
        let out = self.start_election();
        if self.fatal.is_some() {
            return Vec::new();
        }
        out
    }

    /// Proposes a command. Returns a token that will come back in
    /// [`Applied::token`] when the entry commits and applies locally.
    /// Nothing is sent yet: the entry leaves with the next
    /// [`RaftNode::replicate`], so an embedder that proposes several
    /// commands and then calls it once ships them in one AppendEntries per
    /// peer. A lone voter commits and applies the entry inside this call.
    pub fn propose(&mut self, data: Vec<u8>) -> Result<u64, ProposeError> {
        if self.fatal.is_some() || self.role != Role::Leader {
            return Err(ProposeError::NotLeader(self.leader_hint()));
        }
        let index = self.log.append_new(self.term, data, EntryKind::Normal);
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(index, (self.term, token));
        self.persist_log();
        self.advance_commit();
        Ok(token)
    }

    /// [`RaftNode::propose`] followed by [`RaftNode::replicate`], for an
    /// embedder that proposes one command at a time.
    pub fn propose_now(&mut self, data: Vec<u8>) -> Result<(u64, Vec<Outbound>), ProposeError> {
        let token = self.propose(data)?;
        Ok((token, self.replicate()))
    }

    /// The leader's one send path: gives every peer what it has not been
    /// sent yet, and nothing else. That is the entries past its `next`
    /// index, up to `max_entries_per_append` beyond what it acknowledged,
    /// and the commit index once the peer holds entries it has not been
    /// told are committed. A peer whose log position is unknown gets one
    /// probe. The node calls this itself when an ack arrives and, with an
    /// empty message for peers that are owed nothing, on each heartbeat; the
    /// embedder calls it after a batch of [`RaftNode::propose`]s. Returns
    /// nothing on a non-leader.
    pub fn replicate(&mut self) -> Vec<Outbound> {
        if self.fatal.is_some() {
            return Vec::new();
        }
        self.send_to_all(false)
    }

    /// Processes an inbound RPC from `from`, returning replies / follow-ups.
    pub fn step(&mut self, from: NodeId, msg: RaftMessage) -> Vec<Outbound> {
        if self.fatal.is_some() {
            // Inert: answering RPCs from unpersisted state breaks safety.
            return Vec::new();
        }
        let out = self.step_inner(from, msg);
        // A persist failure mid-step means the replies (a granted vote, an
        // append ack) describe unpersisted state — suppress them.
        if self.fatal.is_some() {
            return Vec::new();
        }
        out
    }

    fn step_inner(&mut self, from: NodeId, msg: RaftMessage) -> Vec<Outbound> {
        let is_pre_vote = matches!(
            msg,
            RaftMessage::PreVote { .. } | RaftMessage::PreVoteResp { .. }
        );
        if !is_pre_vote && msg.term() > self.term {
            self.become_follower(msg.term(), None);
        }
        match msg {
            RaftMessage::RequestVote {
                term,
                last_log_index,
                last_log_term,
            } => self.on_request_vote(from, term, last_log_index, last_log_term),
            RaftMessage::RequestVoteResp { term, granted } => {
                self.on_request_vote_resp(from, term, granted)
            }
            RaftMessage::AppendEntries {
                term,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
            } => self.on_append_entries(
                from,
                term,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
            ),
            RaftMessage::AppendEntriesResp {
                term,
                success,
                match_index,
                conflict_index,
            } => self.on_append_entries_resp(from, term, success, match_index, conflict_index),
            RaftMessage::InstallSnapshot {
                term,
                last_index,
                last_term,
                data,
            } => self.on_install_snapshot(from, term, last_index, last_term, data),
            RaftMessage::InstallSnapshotResp { term, match_index } => {
                self.on_install_snapshot_resp(from, term, match_index)
            }
            RaftMessage::PreVote {
                term,
                last_log_index,
                last_log_term,
            } => self.on_pre_vote(from, term, last_log_index, last_log_term),
            RaftMessage::PreVoteResp { term, granted } => {
                self.on_pre_vote_resp(from, term, granted)
            }
            RaftMessage::TimeoutNow { term } => self.on_timeout_now(term),
        }
    }

    /// A transferring leader told us to campaign right now: start a real
    /// election immediately, skipping the election timeout and the pre-vote
    /// probe (the transfer is deliberate, so disturbing the old leader is
    /// the point).
    fn on_timeout_now(&mut self, term: Term) -> Vec<Outbound> {
        if term < self.term || self.is_learner || self.removed {
            return Vec::new();
        }
        self.start_election()
    }

    // ----- elections -----

    fn reset_election_timer(&mut self) {
        self.election_elapsed = 0;
        self.randomized_timeout = self
            .rng
            .gen_range(self.cfg.election_timeout_min..=self.cfg.election_timeout_max);
    }

    fn start_election(&mut self) -> Vec<Outbound> {
        self.role = Role::Candidate;
        self.term += 1;
        self.voted_for = Some(self.id);
        self.leader_hint = None;
        self.votes.clear();
        self.pre_votes.clear();
        self.votes.insert(self.id);
        self.persist_hard_state();
        self.reset_election_timer();
        if self.votes.len() >= self.majority() {
            // Single-node cluster: win immediately.
            return self.become_leader();
        }
        let msg = RaftMessage::RequestVote {
            term: self.term,
            last_log_index: self.log.last_index(),
            last_log_term: self.log.last_term(),
        };
        self.peers
            .iter()
            .map(|&to| Outbound {
                to,
                msg: msg.clone(),
            })
            .collect()
    }

    fn start_pre_vote(&mut self) -> Vec<Outbound> {
        self.role = Role::PreCandidate;
        self.pre_votes.clear();
        self.pre_votes.insert(self.id);
        self.reset_election_timer();
        if self.pre_votes.len() >= self.majority() {
            // Single-node cluster: skip straight to the real election.
            return self.start_election();
        }
        let msg = RaftMessage::PreVote {
            term: self.term + 1,
            last_log_index: self.log.last_index(),
            last_log_term: self.log.last_term(),
        };
        self.peers
            .iter()
            .map(|&to| Outbound {
                to,
                msg: msg.clone(),
            })
            .collect()
    }

    fn on_pre_vote(
        &mut self,
        from: NodeId,
        term: Term,
        last_log_index: LogIndex,
        last_log_term: Term,
    ) -> Vec<Outbound> {
        // Answer without mutating any state: would we vote for this log at
        // that term? Not while we still hear from a live leader (leader
        // stickiness, Raft thesis §9.6): a node cut off from the leader
        // alone must not depose it through us.
        let hears_leader = self.role == Role::Leader
            || (self.leader_hint.is_some()
                && self.election_elapsed < self.cfg.election_timeout_min);
        let granted = !self.is_learner
            && !hears_leader
            && term > self.term
            && self.log.candidate_up_to_date(last_log_index, last_log_term);
        vec![Outbound {
            to: from,
            msg: RaftMessage::PreVoteResp { term, granted },
        }]
    }

    fn on_pre_vote_resp(&mut self, from: NodeId, term: Term, granted: bool) -> Vec<Outbound> {
        if self.role != Role::PreCandidate || term != self.term + 1 || !granted {
            return Vec::new();
        }
        self.pre_votes.insert(from);
        if self.pre_votes.len() >= self.majority() {
            return self.start_election();
        }
        Vec::new()
    }

    fn on_request_vote(
        &mut self,
        from: NodeId,
        term: Term,
        last_log_index: LogIndex,
        last_log_term: Term,
    ) -> Vec<Outbound> {
        let granted = !self.is_learner
            && term == self.term
            && self.role == Role::Follower
            && (self.voted_for.is_none() || self.voted_for == Some(from))
            && self.log.candidate_up_to_date(last_log_index, last_log_term);
        if granted {
            self.voted_for = Some(from);
            self.persist_hard_state();
            self.reset_election_timer();
        }
        vec![Outbound {
            to: from,
            msg: RaftMessage::RequestVoteResp {
                term: self.term,
                granted,
            },
        }]
    }

    fn on_request_vote_resp(&mut self, from: NodeId, term: Term, granted: bool) -> Vec<Outbound> {
        if self.role != Role::Candidate || term != self.term || !granted {
            return Vec::new();
        }
        self.votes.insert(from);
        if self.votes.len() >= self.majority() {
            return self.become_leader();
        }
        Vec::new()
    }

    fn become_leader(&mut self) -> Vec<Outbound> {
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        self.heartbeat_elapsed = 0;
        let next = self.log.last_index() + 1;
        self.progress = self
            .repl_targets()
            .map(|p| (p, Progress::probe(next)))
            .collect();
        // Commit a no-op to learn the commit point of previous terms (§5.4.2).
        self.log.append_new(self.term, Vec::new(), EntryKind::Noop);
        self.persist_log();
        self.advance_commit();
        self.send_to_all(false)
    }

    fn become_follower(&mut self, term: Term, leader: Option<NodeId>) {
        let term_changed = term != self.term;
        self.role = Role::Follower;
        self.term = term;
        if term_changed {
            self.voted_for = None;
        }
        self.leader_hint = leader;
        self.votes.clear();
        self.pre_votes.clear();
        if term_changed {
            self.persist_hard_state();
        }
        self.reset_election_timer();
    }

    // ----- replication -----

    /// One message per peer that is owed one: see [`RaftNode::replicate`].
    /// On a `heartbeat` every peer gets a message, an empty AppendEntries
    /// at its `next` index if nothing else: a peer that lost entries
    /// rejects it and so gets them again.
    fn send_to_all(&mut self, heartbeat: bool) -> Vec<Outbound> {
        if self.role != Role::Leader {
            return Vec::new();
        }
        // By index, so that a call with nothing to send allocates nothing.
        let peers = self.peers.len();
        (0..peers + self.learners.len())
            .filter_map(|i| {
                let p = if i < peers {
                    self.peers[i]
                } else {
                    self.learners[i - peers]
                };
                self.send_to(p, heartbeat)
            })
            .collect()
    }

    fn send_to(&mut self, peer: NodeId, heartbeat: bool) -> Option<Outbound> {
        let mut pr = *self.progress.get(&peer)?;
        if pr.flow == Flow::ProbeSent && !heartbeat {
            return None;
        }
        if pr.next <= self.log.snapshot_index() {
            // Peer is behind our compaction horizon: ship a snapshot. The
            // blob is the state machine as of `last_applied`, so that is the
            // index it covers — not the older compaction point, or the
            // receiver would apply the entries in between twice.
            pr.flow = Flow::ProbeSent;
            self.progress.insert(peer, pr);
            return Some(Outbound {
                to: peer,
                msg: RaftMessage::InstallSnapshot {
                    term: self.term,
                    last_index: self.last_applied,
                    last_term: self
                        .log
                        .term_at(self.last_applied)
                        .unwrap_or(self.log.snapshot_term()),
                    data: self.snapshot_blob(),
                },
            });
        }
        let cap = self.cfg.max_entries_per_append as LogIndex;
        let window_end = match pr.flow {
            Flow::Replicate => pr.matched + cap,
            Flow::Probe | Flow::ProbeSent => pr.next + cap - 1,
        };
        let last = self.log.last_index().min(window_end);
        let (prev_log_index, entries) = if pr.next <= last || heartbeat || pr.flow == Flow::Probe {
            (pr.next - 1, self.log.slice(pr.next, last, cap as usize))
        } else if self.commit_index.min(pr.matched) > pr.commit_sent {
            // A commit notice. It names an entry the peer acknowledged, so
            // it cannot be refused for arriving ahead of entries in flight.
            (pr.matched, Vec::new())
        } else {
            return None;
        };
        let reach = prev_log_index + entries.len() as LogIndex;
        pr.commit_sent = pr.commit_sent.max(self.commit_index.min(reach));
        match pr.flow {
            Flow::Replicate => pr.next = pr.next.max(reach + 1),
            Flow::Probe | Flow::ProbeSent => pr.flow = Flow::ProbeSent,
        }
        self.progress.insert(peer, pr);
        Some(Outbound {
            to: peer,
            msg: RaftMessage::AppendEntries {
                term: self.term,
                prev_log_index,
                prev_log_term: self.log.term_at(prev_log_index).unwrap_or(0),
                entries,
                leader_commit: self.commit_index,
            },
        })
    }

    /// Everyone the leader replicates to: other voters plus learners.
    fn repl_targets(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.peers.iter().chain(self.learners.iter()).copied()
    }

    fn on_append_entries(
        &mut self,
        from: NodeId,
        term: Term,
        prev_log_index: LogIndex,
        prev_log_term: Term,
        entries: Vec<Entry>,
        leader_commit: LogIndex,
    ) -> Vec<Outbound> {
        if term < self.term {
            return vec![Outbound {
                to: from,
                msg: RaftMessage::AppendEntriesResp {
                    term: self.term,
                    success: false,
                    match_index: 0,
                    conflict_index: 0,
                },
            }];
        }
        // Equal (or just-raised) term: `from` is the legitimate leader.
        self.become_follower(term, Some(from));

        // Entries at or below our snapshot are committed and necessarily match.
        let effective_prev_ok = if prev_log_index <= self.log.snapshot_index() {
            true
        } else {
            self.log.term_at(prev_log_index) == Some(prev_log_term)
        };
        if !effective_prev_ok {
            let conflict_index = if prev_log_index > self.log.last_index() {
                self.log.last_index() + 1
            } else {
                self.log.first_index_of_term_at(prev_log_index)
            };
            return vec![Outbound {
                to: from,
                msg: RaftMessage::AppendEntriesResp {
                    term: self.term,
                    success: false,
                    match_index: 0,
                    conflict_index,
                },
            }];
        }

        let new: Vec<Entry> = entries
            .into_iter()
            .filter(|e| e.index > self.log.snapshot_index())
            .collect();
        let match_index = match new.last() {
            Some(last_new) => last_new.index,
            None => prev_log_index.max(self.log.snapshot_index()),
        };
        if !new.is_empty() {
            self.log.append_entries(&new);
            self.persist_log();
        }
        let new_commit = leader_commit.min(match_index);
        if new_commit > self.commit_index {
            self.commit_index = new_commit;
            self.apply_committed();
        }
        vec![Outbound {
            to: from,
            msg: RaftMessage::AppendEntriesResp {
                term: self.term,
                success: true,
                match_index,
                conflict_index: 0,
            },
        }]
    }

    fn on_append_entries_resp(
        &mut self,
        from: NodeId,
        term: Term,
        success: bool,
        match_index: LogIndex,
        conflict_index: LogIndex,
    ) -> Vec<Outbound> {
        if self.role != Role::Leader || term != self.term {
            return Vec::new();
        }
        let Some(pr) = self.progress.get_mut(&from) else {
            return Vec::new();
        };
        if success {
            pr.acked(match_index);
            self.advance_commit();
        } else if !pr.refused(conflict_index) {
            return Vec::new();
        }
        self.replicate()
    }

    fn advance_commit(&mut self) {
        if self.role != Role::Leader {
            return;
        }
        let last = self.log.last_index();
        let mut n = last;
        while n > self.commit_index {
            // Only entries from the current term commit by counting (§5.4.2).
            if self.log.term_at(n) == Some(self.term) {
                // Only voters count toward the quorum; learners are excluded.
                let replicas = 1 + self
                    .peers
                    .iter()
                    .filter(|p| self.progress.get(p).is_some_and(|pr| pr.matched >= n))
                    .count();
                if replicas >= self.majority() {
                    self.commit_index = n;
                    self.apply_committed();
                    return;
                }
            }
            n -= 1;
        }
    }

    fn apply_committed(&mut self) {
        while self.last_applied < self.commit_index {
            let idx = self.last_applied + 1;
            let entry = self
                .log
                .entry_at(idx)
                .cloned()
                .expect("applying entry that was compacted before application");
            self.last_applied = idx;
            match entry.kind {
                EntryKind::Normal => {
                    let output = self.sm.apply(entry.index, &entry.data);
                    let token = match self.pending.remove(&idx) {
                        Some((t, tok)) if t == entry.term => Some(tok),
                        _ => None,
                    };
                    self.applied_buf.push(Applied {
                        index: entry.index,
                        term: entry.term,
                        token,
                        output,
                    });
                }
                EntryKind::ConfChange => {
                    self.pending.remove(&idx);
                    if let Ok(cc) = ConfChange::decode(&entry.data) {
                        self.apply_conf_change(&cc);
                        self.conf_changes.push(cc);
                    }
                }
                EntryKind::Noop => {
                    self.pending.remove(&idx);
                }
            }
        }
        self.maybe_compact();
    }

    /// Mutates the configuration for a committed membership change. Runs on
    /// every member at apply time, so all members transition at the same log
    /// index.
    fn apply_conf_change(&mut self, cc: &ConfChange) {
        let n = cc.node;
        match cc.kind {
            ConfChangeKind::AddLearner => {
                if n != self.id && !self.peers.contains(&n) && !self.learners.contains(&n) {
                    self.learners.push(n);
                    if self.role == Role::Leader {
                        let next = self.log.last_index() + 1;
                        self.progress.insert(n, Progress::probe(next));
                    }
                }
            }
            ConfChangeKind::PromoteVoter => {
                if n == self.id {
                    self.is_learner = false;
                } else {
                    self.learners.retain(|&l| l != n);
                    if !self.peers.contains(&n) {
                        self.peers.push(n);
                        if self.role == Role::Leader {
                            let next = self.log.last_index() + 1;
                            self.progress.entry(n).or_insert(Progress::probe(next));
                        }
                    }
                }
            }
            ConfChangeKind::DemoteLearner => {
                if n == self.id {
                    self.is_learner = true;
                    if self.role != Role::Follower {
                        // A demoted leader/candidate must stop leading; it
                        // should have transferred leadership already.
                        let term = self.term;
                        self.become_follower(term, None);
                    }
                } else {
                    self.peers.retain(|&p| p != n);
                    if !self.learners.contains(&n) {
                        self.learners.push(n);
                    }
                }
            }
            ConfChangeKind::RemoveNode => {
                if n == self.id {
                    self.removed = true;
                    self.is_learner = true;
                    if self.role != Role::Follower {
                        let term = self.term;
                        self.become_follower(term, None);
                    }
                } else {
                    self.peers.retain(|&p| p != n);
                    self.learners.retain(|&l| l != n);
                    self.progress.remove(&n);
                    self.votes.remove(&n);
                    self.pre_votes.remove(&n);
                }
            }
        }
        // A voter removal shrinks the quorum: entries that were one ack
        // short may now be committed without another round trip.
        self.advance_commit();
    }

    /// Serializes the state machine together with the current configuration
    /// (see [`SnapshotBlob`]).
    fn snapshot_blob(&self) -> Vec<u8> {
        let mut voters = self.peers.clone();
        let mut learners = self.learners.clone();
        if self.is_learner {
            learners.push(self.id);
        } else {
            voters.push(self.id);
        }
        voters.sort_unstable();
        learners.sort_unstable();
        beehive_wire::to_vec(&SnapshotBlob {
            voters,
            learners,
            data: self.sm.snapshot(),
        })
        .expect("snapshot encodes")
    }

    /// Restores state machine and configuration from snapshot bytes. Bytes
    /// that do not decode as a [`SnapshotBlob`] are treated as a bare state
    /// machine image (pre-membership snapshots) and leave the static
    /// configuration untouched.
    fn restore_snapshot(&mut self, data: &[u8]) {
        match beehive_wire::from_slice::<SnapshotBlob>(data) {
            Ok(blob) => {
                self.peers = blob
                    .voters
                    .iter()
                    .copied()
                    .filter(|&p| p != self.id)
                    .collect();
                self.learners = blob
                    .learners
                    .iter()
                    .copied()
                    .filter(|&l| l != self.id)
                    .collect();
                if blob.voters.contains(&self.id) {
                    self.is_learner = false;
                } else if blob.learners.contains(&self.id) {
                    self.is_learner = true;
                }
                // A node in neither set keeps its standing flags: the
                // snapshot may predate its own AddLearner entry, which it
                // will apply right after catching up past the snapshot.
                self.sm.restore(&blob.data);
            }
            Err(_) => self.sm.restore(data),
        }
    }

    fn maybe_compact(&mut self) {
        if self.cfg.snapshot_threshold == 0 {
            return;
        }
        if self.last_applied - self.log.snapshot_index() >= self.cfg.snapshot_threshold {
            let data = self.snapshot_blob();
            let term = self
                .log
                .term_at(self.last_applied)
                .unwrap_or(self.log.snapshot_term());
            // The snapshot must be durable BEFORE the log is truncated
            // behind it: if the save fails, keep the log intact (nothing is
            // lost — a restart replays it) and fail stop.
            if let Err(e) = self.storage.save_snapshot(&SnapshotRecord {
                index: self.last_applied,
                term,
                data,
            }) {
                self.fatal.get_or_insert(e);
                return;
            }
            self.snapshots_taken += 1;
            self.log.compact(self.last_applied);
            self.persist_log();
        }
    }

    fn on_install_snapshot(
        &mut self,
        from: NodeId,
        term: Term,
        last_index: LogIndex,
        last_term: Term,
        data: Vec<u8>,
    ) -> Vec<Outbound> {
        if term < self.term {
            return vec![Outbound {
                to: from,
                msg: RaftMessage::InstallSnapshotResp {
                    term: self.term,
                    match_index: 0,
                },
            }];
        }
        self.become_follower(term, Some(from));
        if last_index <= self.commit_index {
            // Stale snapshot; we already have everything it covers.
            return vec![Outbound {
                to: from,
                msg: RaftMessage::InstallSnapshotResp {
                    term: self.term,
                    match_index: self.commit_index,
                },
            }];
        }
        self.restore_snapshot(&data);
        self.log.reset_to_snapshot(last_index, last_term);
        self.commit_index = last_index;
        self.last_applied = last_index;
        self.snapshots_installed += 1;
        if let Err(e) = self.storage.save_snapshot(&SnapshotRecord {
            index: last_index,
            term: last_term,
            data,
        }) {
            // The in-memory restore already happened; going inert here is
            // safe (a restart re-requests the snapshot) but acking is not.
            self.fatal.get_or_insert(e);
            return Vec::new();
        }
        self.persist_log();
        vec![Outbound {
            to: from,
            msg: RaftMessage::InstallSnapshotResp {
                term: self.term,
                match_index: last_index,
            },
        }]
    }

    fn on_install_snapshot_resp(
        &mut self,
        from: NodeId,
        term: Term,
        match_index: LogIndex,
    ) -> Vec<Outbound> {
        if self.role != Role::Leader || term != self.term {
            return Vec::new();
        }
        let Some(pr) = self.progress.get_mut(&from) else {
            return Vec::new();
        };
        pr.acked(match_index);
        self.advance_commit();
        self.replicate()
    }

    // ----- persistence -----
    //
    // Failures latch into `fatal` rather than propagating through every
    // state-transition path: the transition itself has already happened in
    // memory, and the latch guarantees the node emits nothing and accepts
    // nothing from that point on, which is indistinguishable (to the rest of
    // the cluster) from having crashed just before the transition.

    fn persist_hard_state(&mut self) {
        let hs = HardState {
            term: self.term,
            voted_for: self.voted_for,
        };
        if let Err(e) = self.storage.save_hard_state(&hs) {
            self.fatal.get_or_insert(e);
        }
    }

    fn persist_log(&mut self) {
        if let Err(e) = self.storage.save_log(
            self.log.snapshot_index(),
            self.log.snapshot_term(),
            self.log.entries(),
        ) {
            self.fatal.get_or_insert(e);
        }
    }
}

impl<SM: StateMachine> std::fmt::Debug for RaftNode<SM> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaftNode")
            .field("id", &self.id)
            .field("role", &self.role)
            .field("term", &self.term)
            .field("commit", &self.commit_index)
            .field("applied", &self.last_applied)
            .field("last_log", &self.log.last_index())
            .finish()
    }
}
