//! Durable state: current term, vote, log entries and snapshot.
//!
//! [`SharedMemStorage`] is the default for simulations and tests; [`FileStorage`]
//! persists through `beehive-wire` for single-process durability demos and
//! restart tests.
//!
//! Every `save_*` returns a [`StorageError`] instead of panicking: a raft
//! node that cannot persist must *fail stop* (an unpersisted vote or entry
//! that the node later acts on can elect two leaders in one term), but the
//! decision to halt — and the flight-recorder event that explains why —
//! belongs to the embedder, not to an `expect()` deep in the write path.

use std::fmt;
use std::io::{Read, Write};
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use crate::types::{Entry, LogIndex, Term};

/// Why a durable operation failed. Fail-stop: after any `save_*` error the
/// node's persisted state may trail its in-memory state, so the node must
/// stop participating (see `RaftNode::storage_fault`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The underlying IO failed (disk full, permission, device error).
    Io {
        /// Which durable operation was in flight.
        op: &'static str,
        /// OS-level detail.
        detail: String,
    },
    /// Persisted bytes exist but fail checksum or structural validation.
    /// Never auto-healed: restarting from guessed state diverges replicas.
    Corrupt {
        /// What failed to validate.
        detail: String,
    },
    /// The in-memory state could not be serialized (a bug, not a disk
    /// condition — surfaced rather than panicking so it reaches the journal).
    Encode {
        /// Serializer error.
        detail: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { op, detail } => write!(f, "durable {op} failed: {detail}"),
            StorageError::Corrupt { detail } => write!(f, "durable state corrupt: {detail}"),
            StorageError::Encode { detail } => write!(f, "durable state encode failed: {detail}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// When file-backed storage calls `fsync`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` before every rename (the raft correctness requirement: term,
    /// vote and log entries must hit the platter before the node answers).
    #[default]
    Always,
    /// Skip `fsync`; the rename is still atomic, so a process crash loses at
    /// most the tail since the last OS writeback and never corrupts the
    /// file. A power loss can lose acknowledged writes — benches and tests
    /// only.
    Never,
}

/// Term/vote pair that must be fsynced before answering RPCs (Raft Fig. 2).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HardState {
    /// Latest term this node has seen.
    pub term: Term,
    /// Candidate voted for in `term`, if any.
    pub voted_for: Option<crate::types::NodeId>,
}

/// Snapshot blob plus the log position it covers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotRecord {
    /// Index the snapshot covers.
    pub index: LogIndex,
    /// Term at `index`.
    pub term: Term,
    /// Serialized state machine.
    pub data: Vec<u8>,
}

beehive_wire::wire_struct!(SnapshotRecord {
    index,
    term,
    data: bytes
});

/// Persistence interface. Implementations must make `save_*` durable before
/// returning `Ok` (SharedMemStorage trivially so).
pub trait Storage: Send + 'static {
    /// Persists term and vote.
    fn save_hard_state(&mut self, hs: &HardState) -> Result<(), StorageError>;
    /// Persists the entire suffix of the log (called after mutation).
    fn save_log(
        &mut self,
        snapshot_index: LogIndex,
        snapshot_term: Term,
        entries: &[Entry],
    ) -> Result<(), StorageError>;
    /// Persists a snapshot blob.
    fn save_snapshot(&mut self, snap: &SnapshotRecord) -> Result<(), StorageError>;
    /// Loads persisted state, if any. `Err` means bytes exist but cannot be
    /// trusted — the caller must fail stop, not start fresh.
    fn load(&mut self) -> Result<Option<PersistedState>, StorageError>;
}

/// Everything a node needs to restart.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PersistedState {
    /// Term/vote.
    pub hard_state: HardState,
    /// Snapshot point of the persisted log.
    pub snapshot_index: LogIndex,
    /// Term at the snapshot point.
    pub snapshot_term: Term,
    /// Log entries after the snapshot.
    pub entries: Vec<Entry>,
    /// Latest snapshot blob.
    pub snapshot: Option<SnapshotRecord>,
}

impl PersistedState {
    fn is_empty(&self) -> bool {
        self.hard_state == HardState::default()
            && self.entries.is_empty()
            && self.snapshot.is_none()
            && self.snapshot_index == 0
    }
}

/// Volatile storage: keeps everything in memory. The persisted state is
/// shared behind an `Arc`, so a test harness can crash a node (dropping the
/// `RaftNode`) and later restart it from exactly what it had persisted —
/// including its vote, which matters for election safety.
#[derive(Debug, Clone, Default)]
pub struct SharedMemStorage {
    state: std::sync::Arc<std::sync::Mutex<PersistedState>>,
}

impl SharedMemStorage {
    /// Empty shared storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// A second handle to the same persisted state.
    pub fn handle(&self) -> SharedMemStorage {
        SharedMemStorage {
            state: self.state.clone(),
        }
    }

    /// Snapshot of the persisted contents.
    pub fn persisted(&self) -> PersistedState {
        self.state().clone()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, PersistedState> {
        self.state
            .lock()
            .expect("every holder of the storage lock only assigns or clones")
    }
}

impl Storage for SharedMemStorage {
    fn save_hard_state(&mut self, hs: &HardState) -> Result<(), StorageError> {
        self.state().hard_state = hs.clone();
        Ok(())
    }

    fn save_log(
        &mut self,
        snapshot_index: LogIndex,
        snapshot_term: Term,
        entries: &[Entry],
    ) -> Result<(), StorageError> {
        let mut st = self.state();
        st.snapshot_index = snapshot_index;
        st.snapshot_term = snapshot_term;
        st.entries = entries.to_vec();
        Ok(())
    }

    fn save_snapshot(&mut self, snap: &SnapshotRecord) -> Result<(), StorageError> {
        self.state().snapshot = Some(snap.clone());
        Ok(())
    }

    fn load(&mut self) -> Result<Option<PersistedState>, StorageError> {
        let st = self.state();
        if st.is_empty() {
            Ok(None)
        } else {
            Ok(Some(st.clone()))
        }
    }
}

/// File-backed storage. The whole persisted state is rewritten on each save
/// as a single checksummed `beehive-wire` record (tmp + fsync + rename), so
/// a crash leaves either the old file or the new one — never a blend — and a
/// flipped bit is caught at reopen instead of replayed into the registry.
/// Simple and adequate for a control-plane registry whose log is compacted
/// aggressively; a production deployment would use an append-only segment
/// format.
#[derive(Debug)]
pub struct FileStorage {
    path: PathBuf,
    state: PersistedState,
    fsync: FsyncPolicy,
}

impl FileStorage {
    /// Opens (or creates) storage at `path`, fsyncing every save.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::open_with(path, FsyncPolicy::Always)
    }

    /// Opens (or creates) storage at `path` with an explicit fsync policy.
    ///
    /// `InvalidData` means the file exists but fails its checksum or does
    /// not decode — corruption, which callers must treat as fatal rather
    /// than starting from an empty state on top of a lost vote.
    pub fn open_with(path: impl Into<PathBuf>, fsync: FsyncPolicy) -> std::io::Result<Self> {
        let path = path.into();
        let state = match std::fs::File::open(&path) {
            Ok(mut f) => {
                let mut buf = Vec::new();
                f.read_to_end(&mut buf)?;
                if buf.is_empty() {
                    PersistedState::default()
                } else {
                    Self::decode(&buf)
                        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => PersistedState::default(),
            Err(e) => return Err(e),
        };
        Ok(FileStorage { path, state, fsync })
    }

    /// Decodes a storage file: one checksummed record holding the wire-coded
    /// `PersistedState`. The file is written atomically as a whole, so there
    /// is no torn-tail case to tolerate here — anything short of a single
    /// clean record is corruption. (No fallback to the pre-checksum bare
    /// format: garbage can decode as "valid" wire bytes, which is exactly
    /// the silent divergence the checksum exists to stop.)
    fn decode(buf: &[u8]) -> Result<PersistedState, String> {
        match beehive_wire::record::scan_records(buf) {
            Ok(scan) if scan.torn.is_none() && scan.payloads.len() == 1 => {
                beehive_wire::from_slice(&scan.payloads[0])
                    .map_err(|e| format!("checksummed state does not decode: {e}"))
            }
            Ok(scan) => match scan.torn {
                Some(t) => Err(format!(
                    "state file is not one whole record ({} after {} valid bytes)",
                    t.reason, t.valid_len
                )),
                None => Err(format!(
                    "state file holds {} records, expected exactly 1",
                    scan.payloads.len()
                )),
            },
            Err(e) => Err(e.to_string()),
        }
    }

    fn flush(&self) -> Result<(), StorageError> {
        let body = beehive_wire::to_vec(&self.state).map_err(|e| StorageError::Encode {
            detail: e.to_string(),
        })?;
        let buf = beehive_wire::record::record_frame(&body);
        let io_err = |op: &'static str| {
            move |e: std::io::Error| StorageError::Io {
                op,
                detail: e.to_string(),
            }
        };
        let tmp = self.path.with_extension("tmp");
        let mut f = std::fs::File::create(&tmp).map_err(io_err("create raft storage tmp"))?;
        f.write_all(&buf).map_err(io_err("write raft storage"))?;
        if self.fsync == FsyncPolicy::Always {
            f.sync_all().map_err(io_err("sync raft storage"))?;
        }
        drop(f);
        std::fs::rename(&tmp, &self.path).map_err(io_err("replace raft storage"))
    }
}

impl Storage for FileStorage {
    fn save_hard_state(&mut self, hs: &HardState) -> Result<(), StorageError> {
        self.state.hard_state = hs.clone();
        self.flush()
    }

    fn save_log(
        &mut self,
        snapshot_index: LogIndex,
        snapshot_term: Term,
        entries: &[Entry],
    ) -> Result<(), StorageError> {
        self.state.snapshot_index = snapshot_index;
        self.state.snapshot_term = snapshot_term;
        self.state.entries = entries.to_vec();
        self.flush()
    }

    fn save_snapshot(&mut self, snap: &SnapshotRecord) -> Result<(), StorageError> {
        self.state.snapshot = Some(snap.clone());
        self.flush()
    }

    fn load(&mut self) -> Result<Option<PersistedState>, StorageError> {
        if self.state.is_empty() {
            Ok(None)
        } else {
            Ok(Some(self.state.clone()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::EntryKind;

    fn sample_entries() -> Vec<Entry> {
        vec![
            Entry {
                term: 1,
                index: 1,
                data: vec![1],
                kind: EntryKind::Normal,
            },
            Entry {
                term: 2,
                index: 2,
                data: vec![],
                kind: EntryKind::Noop,
            },
        ]
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bh-raft-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn mem_storage_roundtrip() {
        let mut s = SharedMemStorage::new();
        let mut restarted = s.handle();
        assert!(s.load().unwrap().is_none());
        s.save_hard_state(&HardState {
            term: 3,
            voted_for: Some(2),
        })
        .unwrap();
        s.save_log(0, 0, &sample_entries()).unwrap();
        let loaded = restarted.load().unwrap().unwrap();
        assert_eq!(loaded.hard_state.term, 3);
        assert_eq!(loaded.entries.len(), 2);
    }

    #[test]
    fn file_storage_survives_reopen() {
        let path = temp_path("node1.raft");
        {
            let mut s = FileStorage::open(&path).unwrap();
            assert!(s.load().unwrap().is_none());
            s.save_hard_state(&HardState {
                term: 7,
                voted_for: None,
            })
            .unwrap();
            s.save_log(1, 1, &sample_entries()).unwrap();
            s.save_snapshot(&SnapshotRecord {
                index: 1,
                term: 1,
                data: vec![42],
            })
            .unwrap();
        }
        {
            let mut s = FileStorage::open(&path).unwrap();
            let loaded = s.load().unwrap().unwrap();
            assert_eq!(loaded.hard_state.term, 7);
            assert_eq!(loaded.snapshot_index, 1);
            assert_eq!(loaded.snapshot.unwrap().data, vec![42]);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_storage_rejects_flipped_bit() {
        let path = temp_path("node2.raft");
        {
            let mut s = FileStorage::open(&path).unwrap();
            s.save_hard_state(&HardState {
                term: 9,
                voted_for: Some(1),
            })
            .unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        let err = FileStorage::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_storage_rejects_truncated_state() {
        let path = temp_path("node3.raft");
        {
            let mut s = FileStorage::open(&path).unwrap();
            s.save_log(1, 1, &sample_entries()).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        // A half-written state file can only come from a non-atomic writer
        // (or a mangled rename) — reject it rather than booting empty.
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = FileStorage::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsync_never_still_roundtrips() {
        let path = temp_path("node4.raft");
        {
            let mut s = FileStorage::open_with(&path, FsyncPolicy::Never).unwrap();
            s.save_log(2, 1, &sample_entries()).unwrap();
        }
        let mut s = FileStorage::open_with(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(s.load().unwrap().unwrap().snapshot_index, 2);
        let _ = std::fs::remove_file(&path);
    }

    // ----- a node on a failing disk -----
    //
    // The two durability contracts the chaos harness relies on: the first
    // failed persist latches the node inert (fail-stop, not fail-silent),
    // and a snapshot save that fails leaves the log untruncated, so a
    // restart replays the full history.

    use std::sync::{Arc, Mutex};

    use crate::{Config, KvCounter, RaftNode};

    /// Which durable write an armed [`FlakyDisk`] fails.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Write {
        HardState,
        Log,
        Snapshot,
        Any,
    }

    /// What is armed on a [`FlakyDisk`], and what it injected.
    #[derive(Debug, Default)]
    struct Armed {
        write: Option<Write>,
        /// Keep failing (a dead disk) rather than fail once.
        sticky: bool,
        injected: u64,
    }

    /// Storage whose writes fail when armed; reads pass through. The test
    /// keeps a clone of `armed` while the node owns the disk.
    struct FlakyDisk {
        inner: SharedMemStorage,
        armed: Arc<Mutex<Armed>>,
    }

    impl FlakyDisk {
        fn check(&self, write: Write, op: &'static str) -> Result<(), StorageError> {
            let mut a = self.armed.lock().unwrap();
            if !a.write.is_some_and(|w| w == Write::Any || w == write) {
                return Ok(());
            }
            a.injected += 1;
            if !a.sticky {
                a.write = None;
            }
            Err(StorageError::Io {
                op,
                detail: "injected disk fault".into(),
            })
        }
    }

    impl Storage for FlakyDisk {
        fn save_hard_state(&mut self, hs: &HardState) -> Result<(), StorageError> {
            self.check(Write::HardState, "save hard state")?;
            self.inner.save_hard_state(hs)
        }

        fn save_log(
            &mut self,
            snapshot_index: LogIndex,
            snapshot_term: Term,
            entries: &[Entry],
        ) -> Result<(), StorageError> {
            self.check(Write::Log, "save log")?;
            self.inner.save_log(snapshot_index, snapshot_term, entries)
        }

        fn save_snapshot(&mut self, snap: &SnapshotRecord) -> Result<(), StorageError> {
            self.check(Write::Snapshot, "save snapshot")?;
            self.inner.save_snapshot(snap)
        }

        fn load(&mut self) -> Result<Option<PersistedState>, StorageError> {
            self.inner.load()
        }
    }

    fn config(threshold: u64) -> Config {
        Config {
            rng_seed: 1,
            snapshot_threshold: threshold,
            ..Config::default()
        }
    }

    /// Ticks a lone voter until it elects itself.
    fn run_until_leader(node: &mut RaftNode<KvCounter>) {
        for _ in 0..200 {
            node.tick();
            if node.is_leader() {
                return;
            }
        }
        panic!("single-node cluster never elected itself");
    }

    /// A lone voter on a [`FlakyDisk`] over `shared`, and the disk's arm.
    fn single_node(threshold: u64) -> (RaftNode<KvCounter>, Arc<Mutex<Armed>>, SharedMemStorage) {
        let shared = SharedMemStorage::new();
        let armed = Arc::new(Mutex::new(Armed::default()));
        let disk = FlakyDisk {
            inner: shared.handle(),
            armed: armed.clone(),
        };
        let node = RaftNode::new(
            1,
            Vec::new(),
            config(threshold),
            KvCounter::default(),
            Box::new(disk),
        );
        (node, armed, shared)
    }

    /// Fails the next matching write, or every one from now on (a dead
    /// disk) when `sticky`.
    fn arm(armed: &Mutex<Armed>, write: Write, sticky: bool) {
        let mut a = armed.lock().unwrap();
        a.write = Some(write);
        a.sticky = sticky;
    }

    /// Restarts a node from the (healthy) shared storage and re-elects it.
    fn restart(threshold: u64, shared: &SharedMemStorage) -> RaftNode<KvCounter> {
        let mut node = RaftNode::new(
            1,
            Vec::new(),
            config(threshold),
            KvCounter::default(),
            Box::new(shared.handle()),
        );
        run_until_leader(&mut node);
        node
    }

    #[test]
    fn an_injected_persist_failure_latches_the_node_inert() {
        let (mut node, armed, shared) = single_node(0);
        run_until_leader(&mut node);
        node.propose(vec![5]).unwrap();
        assert_eq!(node.state_machine().total, 5);

        arm(&armed, Write::Log, false);
        // The proposal itself may return a token (the append happened in
        // memory) but the persist fails — the node must latch the fault...
        let _ = node.propose(vec![7]);
        let fault = node.storage_fault().expect("fault must latch");
        assert!(matches!(fault, StorageError::Io { .. }), "{fault}");
        assert_eq!(armed.lock().unwrap().injected, 1);

        // ...and go inert: no messages out of ticks, proposals refused.
        for _ in 0..50 {
            assert!(node.tick().is_empty(), "a latched node emits nothing");
        }
        assert!(
            node.propose(vec![9]).is_err(),
            "a latched node refuses work"
        );

        // Durable state predating the fault is intact: a restart replays it
        // and lands exactly where the last *successful* persist left off.
        let restored = restart(0, &shared);
        assert_eq!(restored.state_machine().total, 5);
        assert_eq!(
            restored.storage_fault(),
            None,
            "the healed disk restarts clean"
        );
    }

    #[test]
    fn a_dead_disk_fails_the_node_at_first_write() {
        let (mut node, armed, _shared) = single_node(0);
        arm(&armed, Write::Any, true);
        // The self-vote of the first election is the first durable write —
        // the node must never become leader on an unpersisted vote.
        for _ in 0..200 {
            node.tick();
        }
        assert!(!node.is_leader());
        assert!(node.storage_fault().is_some());
        assert!(armed.lock().unwrap().injected >= 1);
    }

    #[test]
    fn a_snapshot_save_failure_keeps_the_log_for_full_replay() {
        const THRESHOLD: u64 = 3;
        let (mut node, armed, shared) = single_node(THRESHOLD);
        run_until_leader(&mut node);

        // Arm the fault, then push past the compaction threshold: the
        // snapshot write fails mid-compaction.
        arm(&armed, Write::Snapshot, false);
        let mut expected = 0u64;
        for b in 1..=(THRESHOLD as u8 + 2) {
            expected += b as u64;
            let _ = node.propose(vec![b]);
            if node.storage_fault().is_some() {
                break;
            }
        }
        assert!(
            node.storage_fault().is_some(),
            "the failed snapshot save must latch the node"
        );
        // The log was NOT truncated behind a snapshot that never landed.
        assert_eq!(node.snapshot_index(), 0);
        assert_eq!(node.snapshots_taken(), 0);

        // Restart from the durable log (every entry persisted fine): the
        // replayed state machine equals the pre-crash one, and compaction
        // now succeeds on a healthy disk.
        let restored = restart(THRESHOLD, &shared);
        assert_eq!(
            restored.state_machine().total,
            expected,
            "full log replay reproduces the pre-crash state"
        );
        assert!(
            restored.snapshot_index() > 0,
            "compaction completes once the disk heals"
        );
        assert!(restored.snapshots_taken() > 0);
    }
}
