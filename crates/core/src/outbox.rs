//! Durable outbox journal backing the reliable channel layer
//! ([`crate::channel`]).
//!
//! Every channel-relevant event — an application envelope handed to the
//! channel, a cumulative ack received, a frame delivered locally — is
//! appended to a per-hive journal file in the hive's storage directory
//! (the same directory the registry Raft state persists to). On restart the
//! journal is replayed into an [`OutboxState`]: unacked envelopes re-enter
//! the resend buffer (at-least-once across crashes), and the receive-side
//! dedup state is restored so redelivered envelopes are suppressed instead
//! of double-applied.
//!
//! The format is a flat sequence of checksummed
//! `[u32 length][u64 checksum][beehive-wire bytes]` records
//! ([`beehive_wire::record`]). Records are *staged*: serialized in place
//! into one reusable buffer, then written by [`Outbox::commit`] with a single
//! `write(2)` (group commit). The hive commits once before a step's first
//! handler runs and once before the step's frames reach the transport, so a
//! SIGKILLed process loses at most the step's unwritten batch — and none of
//! that batch's frames or handler runs has left the process yet (a `Send`
//! is on disk before its frame is on the wire, a `Delivered` before its
//! handler sees the message). Recovery follows the durability contract
//! (DESIGN.md §3.15): a torn tail — a crash mid-append — is truncated off
//! and counted, while interior corruption (a flipped bit inside a verified
//! prefix) fails the open with `InvalidData` so the hive halts instead of
//! silently diverging from its peers. Compaction rewrites the journal as a
//! state snapshot (atomic tmp + rename) once enough incremental records
//! accumulate. Whether the rewrite and the torn-tail truncation are synced
//! to disk follows the hive's [`FsyncPolicy`], like the registry storage
//! next to it.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use beehive_raft::FsyncPolicy;
use beehive_wire::record::{begin_record, scan_records, seal_record};
use serde::ser::{Serialize, SerializeStructVariant, Serializer};

/// One durable record of the channel journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEntry {
    /// This hive's channel epoch (stamped once at channel creation and
    /// preserved by compaction; receivers use it to tell a durable restart
    /// from an amnesiac one).
    Epoch {
        /// The epoch value.
        epoch: u64,
    },
    /// An application envelope was sequenced toward peer `to`. Journaled
    /// *before* the frame reaches the transport, so the durable `next_seq`
    /// never lags what a receiver may have seen.
    Send {
        /// Destination hive.
        to: u32,
        /// Per-peer monotonic sequence number.
        seq: u64,
        /// Serialized [`crate::message::WireEnvelope`].
        env: Vec<u8>,
    },
    /// Peer `to` cumulatively acknowledged every sequence up to `upto`.
    Acked {
        /// The acking peer.
        to: u32,
        /// Highest contiguous acknowledged sequence.
        upto: u64,
    },
    /// Frame `seq` of peer `from` (in its epoch `epoch`) was delivered to
    /// the local dispatcher. Journaled at delivery time — before the
    /// handler runs — so a crash-restart suppresses the retransmission
    /// instead of double-applying it.
    Delivered {
        /// The sending peer.
        from: u32,
        /// The sender's channel epoch.
        epoch: u64,
        /// The delivered sequence number.
        seq: u64,
    },
    /// Receive-side state for `from` was reset because its sender restarted
    /// with a newer epoch; `retired` frames delivered under the old epoch
    /// fold into the retired accumulator (keeps delivery stats monotonic).
    RecvReset {
        /// The sending peer.
        from: u32,
        /// The new epoch.
        epoch: u64,
        /// Frames delivered under the replaced epoch.
        retired: u64,
    },
    /// Compaction summary of one peer's send-side state (`Send` records for
    /// the still-unacked envelopes follow separately).
    SendState {
        /// The peer.
        to: u32,
        /// Next sequence to assign.
        next_seq: u64,
        /// Highest contiguous acknowledged sequence.
        acked: u64,
    },
    /// Compaction summary of one peer's receive-side dedup state.
    RecvState {
        /// The sending peer.
        from: u32,
        /// The sender's epoch being tracked.
        epoch: u64,
        /// Contiguous delivered prefix.
        last_delivered: u64,
        /// Out-of-order sequences already delivered.
        seen_ahead: Vec<u64>,
        /// Frames delivered under earlier epochs of this peer.
        retired: u64,
    },
    /// Peer `peer` left the cluster: its send/recv state was dropped and its
    /// counters folded into the channel-wide retirement accumulators so the
    /// cumulative stats stay monotonic. `expired` counts the unacked
    /// envelopes that will never be delivered (dead-lettered by the hive).
    /// Compaction re-emits one cumulative record with `peer = 0`.
    PeerRetired {
        /// The departed peer (0 for the compaction accumulator record).
        peer: u32,
        /// Envelopes that had been sequenced toward the peer.
        sent: u64,
        /// Envelopes that had been delivered from the peer.
        delivered: u64,
        /// Unacked envelopes abandoned (returned for dead-lettering).
        expired: u64,
    },
}

beehive_wire::wire_enum!(JournalEntry {
    0 => Epoch { epoch },
    1 => Send { to, seq, env: bytes },
    2 => Acked { to, upto },
    3 => Delivered { from, epoch, seq },
    4 => RecvReset { from, epoch, retired },
    5 => SendState { to, next_seq, acked },
    6 => RecvState { from, epoch, last_delivered, seen_ahead, retired },
    7 => PeerRetired { peer, sent, delivered, expired },
});

/// A [`JournalEntry::Send`] that borrows its envelope — the same record on
/// disk. The channel journals and compacts straight out of its resend
/// buffer with it, instead of cloning every payload into an owned entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendRef<'a> {
    /// Destination hive.
    pub to: u32,
    /// Per-peer monotonic sequence number.
    pub seq: u64,
    /// Serialized [`crate::message::WireEnvelope`].
    pub env: &'a [u8],
}

impl Serialize for SendRef<'_> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut sv = s.serialize_struct_variant("JournalEntry", 1, "Send", 3)?;
        sv.serialize_field("to", &self.to)?;
        sv.serialize_field("seq", &self.seq)?;
        sv.serialize_field("env", &beehive_wire::Bytes(self.env))?;
        sv.end()
    }
}

/// Recovered send-side state for one peer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SendRecovery {
    /// Next sequence to assign.
    pub next_seq: u64,
    /// Highest contiguous acknowledged sequence.
    pub acked: u64,
    /// Unacked envelopes by sequence (replayed into the resend buffer).
    pub unacked: BTreeMap<u64, Vec<u8>>,
}

/// Recovered receive-side dedup state for one peer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecvRecovery {
    /// The sender's epoch being tracked.
    pub epoch: u64,
    /// Contiguous delivered prefix.
    pub last_delivered: u64,
    /// Out-of-order sequences already delivered.
    pub seen_ahead: BTreeSet<u64>,
    /// Frames delivered under earlier epochs of this peer.
    pub retired: u64,
}

/// Everything a journal replay recovers.
#[derive(Debug, Clone, Default)]
pub struct OutboxState {
    /// This hive's channel epoch, if the journal recorded one.
    pub epoch: Option<u64>,
    /// Send-side state per peer.
    pub send: BTreeMap<u32, SendRecovery>,
    /// Receive-side state per peer.
    pub recv: BTreeMap<u32, RecvRecovery>,
    /// Envelopes sequenced toward peers retired since (membership removal).
    pub retired_sent: u64,
    /// Envelopes delivered from peers retired since.
    pub retired_delivered: u64,
    /// Unacked envelopes abandoned when their peer was retired.
    pub expired: u64,
    /// Torn tail records discarded (and truncated off the file) during this
    /// recovery: each one is a crash mid-append whose record never became
    /// durable. Surfaced as `beehive_journal_torn_truncations_total`.
    pub torn_truncations: u64,
}

impl OutboxState {
    fn apply(&mut self, entry: JournalEntry) {
        match entry {
            JournalEntry::Epoch { epoch } => self.epoch = Some(epoch),
            JournalEntry::Send { to, seq, env } => {
                let s = self.send.entry(to).or_default();
                s.next_seq = s.next_seq.max(seq + 1);
                if seq > s.acked {
                    s.unacked.insert(seq, env);
                }
            }
            JournalEntry::Acked { to, upto } => {
                let s = self.send.entry(to).or_default();
                s.acked = s.acked.max(upto);
                s.unacked.retain(|&seq, _| seq > upto);
            }
            JournalEntry::SendState {
                to,
                next_seq,
                acked,
            } => {
                let s = self.send.entry(to).or_default();
                s.next_seq = s.next_seq.max(next_seq);
                s.acked = s.acked.max(acked);
            }
            JournalEntry::Delivered { from, epoch, seq } => {
                let r = self.recv.entry(from).or_default();
                if r.epoch == 0 && r.last_delivered == 0 && r.seen_ahead.is_empty() {
                    r.epoch = epoch;
                }
                if epoch != r.epoch || seq <= r.last_delivered {
                    return;
                }
                r.seen_ahead.insert(seq);
                while r.seen_ahead.remove(&(r.last_delivered + 1)) {
                    r.last_delivered += 1;
                }
            }
            JournalEntry::RecvReset {
                from,
                epoch,
                retired,
            } => {
                let r = self.recv.entry(from).or_default();
                r.epoch = epoch;
                r.last_delivered = 0;
                r.seen_ahead.clear();
                r.retired += retired;
            }
            JournalEntry::RecvState {
                from,
                epoch,
                last_delivered,
                seen_ahead,
                retired,
            } => {
                let r = self.recv.entry(from).or_default();
                r.epoch = epoch;
                r.last_delivered = last_delivered;
                r.seen_ahead = seen_ahead.into_iter().collect();
                r.retired = retired;
            }
            JournalEntry::PeerRetired {
                peer,
                sent,
                delivered,
                expired,
            } => {
                self.send.remove(&peer);
                self.recv.remove(&peer);
                self.retired_sent += sent;
                self.retired_delivered += delivered;
                self.expired += expired;
            }
        }
    }
}

/// The append-only journal file.
pub struct Outbox {
    path: PathBuf,
    file: File,
    /// Framed records staged since the last [`Outbox::commit`]; the
    /// allocation is reused from commit to commit.
    staged: Vec<u8>,
    appends_since_compact: u64,
    fsync: FsyncPolicy,
}

impl std::fmt::Debug for Outbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Outbox")
            .field("path", &self.path)
            .field("appends_since_compact", &self.appends_since_compact)
            .finish()
    }
}

impl Outbox {
    /// Opens (or creates) the journal at `path` and replays it, syncing
    /// every rewrite of the file ([`FsyncPolicy::Always`]).
    pub fn open(path: impl Into<PathBuf>) -> io::Result<(Outbox, OutboxState)> {
        Self::open_with(path, FsyncPolicy::Always)
    }

    /// Opens (or creates) the journal at `path` with an explicit fsync
    /// policy and replays it.
    ///
    /// A torn tail record — a crash mid-append — is truncated off the file
    /// (so later appends extend the verified prefix, not the garbage) and
    /// counted in [`OutboxState::torn_truncations`]. Interior corruption
    /// fails with `InvalidData`: callers must treat that as fatal, because
    /// a journal that fails its checksums mid-file cannot be trusted to
    /// reproduce the dedup/resend state the peers have observed.
    pub fn open_with(
        path: impl Into<PathBuf>,
        fsync: FsyncPolicy,
    ) -> io::Result<(Outbox, OutboxState)> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut state = OutboxState::default();
        match std::fs::read(&path) {
            Ok(bytes) => {
                let scan = scan_records(&bytes).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("outbox journal {}: {e}", path.display()),
                    )
                })?;
                for payload in &scan.payloads {
                    // A record that passed its checksum but does not decode
                    // is not a torn write — it is a format-level fault, and
                    // skipping it would replay a different history than the
                    // one acked to peers.
                    let entry = beehive_wire::from_slice::<JournalEntry>(payload).map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "outbox journal {}: verified record does not decode: {e}",
                                path.display()
                            ),
                        )
                    })?;
                    state.apply(entry);
                }
                if let Some(torn) = &scan.torn {
                    state.torn_truncations += 1;
                    let keep = torn.valid_len as u64;
                    let f = OpenOptions::new().write(true).open(&path)?;
                    f.set_len(keep)?;
                    if fsync == FsyncPolicy::Always {
                        f.sync_data()?;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok((
            Outbox {
                path,
                file,
                staged: Vec::new(),
                appends_since_compact: 0,
                fsync,
            },
            state,
        ))
    }

    /// Stages one record: serialized in place behind the records already
    /// staged. Nothing reaches the file until [`Outbox::commit`].
    pub fn stage(&mut self, entry: &JournalEntry) -> io::Result<()> {
        self.stage_record(entry)
    }

    /// [`Outbox::stage`] of a `Send` entry whose envelope stays where it is.
    pub fn stage_send(&mut self, send: SendRef<'_>) -> io::Result<()> {
        self.stage_record(&send)
    }

    fn stage_record<T: Serialize>(&mut self, entry: &T) -> io::Result<()> {
        encode_entry(entry, &mut self.staged)?;
        self.appends_since_compact += 1;
        Ok(())
    }

    /// Writes every staged record with one `write(2)` straight to the file
    /// descriptor (no userspace buffering), so a killed process loses at
    /// most the batch being written. The staging buffer is emptied either
    /// way: after a failed write the journal is no longer trusted.
    pub fn commit(&mut self) -> io::Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let written = self.file.write_all(&self.staged);
        self.staged.clear();
        written
    }

    /// Stages one record and commits it: one `write(2)` per call.
    pub fn append(&mut self, entry: &JournalEntry) -> io::Result<()> {
        self.stage(entry)?;
        self.commit()
    }

    /// Number of records staged or appended since the journal was last
    /// compacted (or opened). The channel layer compacts once this grows
    /// large.
    pub fn appends_since_compact(&self) -> u64 {
        self.appends_since_compact
    }

    /// Atomically replaces the journal with a snapshot (tmp + rename):
    /// the `state` entries, then one `Send` record per still-unacked
    /// envelope. Records still staged are dropped, not written: the
    /// snapshot is taken from in-memory state that already includes them.
    /// Returns the size in bytes of the rewritten journal.
    pub fn compact<'a>(
        &mut self,
        state: &[JournalEntry],
        unacked: impl IntoIterator<Item = SendRef<'a>>,
    ) -> io::Result<u64> {
        let tmp = self.path.with_extension("outbox.tmp");
        // The snapshot is built in the staging buffer, whose records it
        // supersedes.
        let buf = &mut self.staged;
        buf.clear();
        for entry in state {
            encode_entry(entry, buf)?;
        }
        for send in unacked {
            encode_entry(&send, buf)?;
        }
        let len = buf.len() as u64;
        let written = write_file(&tmp, buf, self.fsync);
        buf.clear();
        written?;
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.appends_since_compact = 0;
        Ok(len)
    }

    /// The journal's path (diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Creates (or truncates) `path` holding exactly `bytes`, synced under
/// [`FsyncPolicy::Always`].
fn write_file(path: &Path, bytes: &[u8], fsync: FsyncPolicy) -> io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    if fsync == FsyncPolicy::Always {
        f.sync_data()?;
    }
    Ok(())
}

/// Appends `entry` to `out` as one checksummed record, serialized in place
/// (reserve the header, serialize, backfill length and checksum).
fn encode_entry<T: Serialize>(entry: &T, out: &mut Vec<u8>) -> io::Result<()> {
    let start = begin_record(out);
    if let Err(e) = entry.serialize(&mut beehive_wire::Serializer::with_sink(&mut *out)) {
        out.truncate(start);
        return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
    }
    seal_record(out, start);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_journal(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let n = NONCE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "beehive-outbox-{}-{tag}-{n}.outbox",
            std::process::id()
        ))
    }

    #[test]
    fn replay_reconstructs_send_and_recv_state() {
        let path = tmp_journal("replay");
        {
            let (mut ob, state) = Outbox::open(&path).unwrap();
            assert!(state.epoch.is_none());
            ob.append(&JournalEntry::Epoch { epoch: 7 }).unwrap();
            ob.append(&JournalEntry::Send {
                to: 2,
                seq: 1,
                env: vec![0xAA],
            })
            .unwrap();
            ob.append(&JournalEntry::Send {
                to: 2,
                seq: 2,
                env: vec![0xBB],
            })
            .unwrap();
            ob.append(&JournalEntry::Acked { to: 2, upto: 1 }).unwrap();
            ob.append(&JournalEntry::Delivered {
                from: 3,
                epoch: 9,
                seq: 1,
            })
            .unwrap();
            ob.append(&JournalEntry::Delivered {
                from: 3,
                epoch: 9,
                seq: 3,
            })
            .unwrap();
        }
        let (_ob, state) = Outbox::open(&path).unwrap();
        assert_eq!(state.epoch, Some(7));
        let s = &state.send[&2];
        assert_eq!(s.next_seq, 3);
        assert_eq!(s.acked, 1);
        assert_eq!(s.unacked.len(), 1);
        assert_eq!(s.unacked[&2], vec![0xBB]);
        let r = &state.recv[&3];
        assert_eq!(r.epoch, 9);
        assert_eq!(r.last_delivered, 1);
        assert!(r.seen_ahead.contains(&3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_tail_record_is_tolerated() {
        let path = tmp_journal("trunc");
        {
            let (mut ob, _) = Outbox::open(&path).unwrap();
            ob.append(&JournalEntry::Epoch { epoch: 1 }).unwrap();
            ob.append(&JournalEntry::Send {
                to: 2,
                seq: 1,
                env: vec![1, 2, 3],
            })
            .unwrap();
        }
        // Simulate a crash mid-append: chop the last few bytes off.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let torn_file_len;
        {
            let (_ob, state) = Outbox::open(&path).unwrap();
            assert_eq!(state.epoch, Some(1));
            assert!(state.send.is_empty(), "torn record must be discarded");
            assert_eq!(state.torn_truncations, 1, "torn tail must be counted");
            torn_file_len = std::fs::metadata(&path).unwrap().len();
        }
        // The garbage tail was physically truncated, so the journal ends at
        // the verified prefix and a second recovery is clean.
        assert!(torn_file_len < bytes.len() as u64 - 2);
        let (_ob, state) = Outbox::open(&path).unwrap();
        assert_eq!(state.epoch, Some(1));
        assert_eq!(state.torn_truncations, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn appends_after_torn_tail_survive_the_next_recovery() {
        let path = tmp_journal("torn-append");
        {
            let (mut ob, _) = Outbox::open(&path).unwrap();
            ob.append(&JournalEntry::Epoch { epoch: 3 }).unwrap();
            ob.append(&JournalEntry::Send {
                to: 2,
                seq: 1,
                env: vec![9],
            })
            .unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        {
            // Reopen over the torn tail and append a fresh record: it must
            // land right after the verified prefix, not after the garbage
            // (the pre-checksum format appended after the torn bytes, which
            // silently dropped every later record on the NEXT replay).
            let (mut ob, state) = Outbox::open(&path).unwrap();
            assert_eq!(state.torn_truncations, 1);
            ob.append(&JournalEntry::Send {
                to: 2,
                seq: 1,
                env: vec![7],
            })
            .unwrap();
        }
        let (_ob, state) = Outbox::open(&path).unwrap();
        assert_eq!(state.epoch, Some(3));
        assert_eq!(state.send[&2].unacked[&1], vec![7]);
        assert_eq!(state.torn_truncations, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interior_bit_flip_fails_the_open() {
        let path = tmp_journal("corrupt");
        {
            let (mut ob, _) = Outbox::open(&path).unwrap();
            ob.append(&JournalEntry::Epoch { epoch: 2 }).unwrap();
            ob.append(&JournalEntry::Send {
                to: 5,
                seq: 1,
                env: vec![1, 2, 3, 4],
            })
            .unwrap();
            ob.append(&JournalEntry::Acked { to: 5, upto: 1 }).unwrap();
        }
        // Flip a bit inside the FIRST record: interior corruption, not a
        // torn tail — recovery must refuse rather than replay a divergent
        // history.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[13] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();
        let err = Outbox::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_is_atomic_and_preserves_state() {
        let path = tmp_journal("compact");
        {
            let (mut ob, _) = Outbox::open(&path).unwrap();
            for seq in 1..=10u64 {
                ob.append(&JournalEntry::Send {
                    to: 4,
                    seq,
                    env: vec![seq as u8],
                })
                .unwrap();
            }
            ob.append(&JournalEntry::Acked { to: 4, upto: 9 }).unwrap();
            assert_eq!(ob.appends_since_compact(), 11);
            // Compact to the equivalent snapshot.
            ob.compact(
                &[
                    JournalEntry::Epoch { epoch: 5 },
                    JournalEntry::SendState {
                        to: 4,
                        next_seq: 11,
                        acked: 9,
                    },
                ],
                [SendRef {
                    to: 4,
                    seq: 10,
                    env: &[10],
                }],
            )
            .unwrap();
            assert_eq!(ob.appends_since_compact(), 0);
            // Appends keep working after the rename.
            ob.append(&JournalEntry::Acked { to: 4, upto: 10 }).unwrap();
        }
        let (_ob, state) = Outbox::open(&path).unwrap();
        assert_eq!(state.epoch, Some(5));
        let s = &state.send[&4];
        assert_eq!(s.next_seq, 11);
        assert_eq!(s.acked, 10);
        assert!(s.unacked.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn staged_records_are_written_together_and_superseded_by_compaction() {
        let path = tmp_journal("stage");
        let (mut ob, _) = Outbox::open(&path).unwrap();
        ob.stage(&JournalEntry::Epoch { epoch: 4 }).unwrap();
        ob.stage_send(SendRef {
            to: 2,
            seq: 1,
            env: &[5, 6],
        })
        .unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0, "staged only");
        ob.commit().unwrap();
        let mut twin = Vec::new();
        encode_entry(&JournalEntry::Epoch { epoch: 4 }, &mut twin).unwrap();
        encode_entry(
            &JournalEntry::Send {
                to: 2,
                seq: 1,
                env: vec![5, 6],
            },
            &mut twin,
        )
        .unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), twin);
        // A compaction's snapshot already includes what is staged: the
        // staged record is dropped, not appended after the snapshot.
        ob.stage(&JournalEntry::Acked { to: 2, upto: 1 }).unwrap();
        ob.compact(
            &[
                JournalEntry::Epoch { epoch: 4 },
                JournalEntry::SendState {
                    to: 2,
                    next_seq: 2,
                    acked: 1,
                },
            ],
            [],
        )
        .unwrap();
        ob.commit().unwrap();
        drop(ob);
        let (_ob, state) = Outbox::open(&path).unwrap();
        assert_eq!(state.epoch, Some(4));
        assert_eq!(state.send[&2].acked, 1);
        assert!(state.send[&2].unacked.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsync_never_still_compacts_and_truncates() {
        let path = tmp_journal("nosync");
        {
            let (mut ob, _) = Outbox::open_with(&path, FsyncPolicy::Never).unwrap();
            ob.append(&JournalEntry::Epoch { epoch: 1 }).unwrap();
            ob.compact(
                &[JournalEntry::Epoch { epoch: 6 }],
                [SendRef {
                    to: 2,
                    seq: 1,
                    env: &[1, 2, 3],
                }],
            )
            .unwrap();
            ob.stage_send(SendRef {
                to: 2,
                seq: 2,
                env: &[4],
            })
            .unwrap();
            ob.commit().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let (_ob, state) = Outbox::open_with(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(state.epoch, Some(6));
        assert_eq!(state.torn_truncations, 1);
        assert_eq!(state.send[&2].unacked, BTreeMap::from([(1, vec![1, 2, 3])]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn peer_retired_drops_state_and_accumulates() {
        let mut state = OutboxState::default();
        state.apply(JournalEntry::Send {
            to: 2,
            seq: 1,
            env: vec![0xAA],
        });
        state.apply(JournalEntry::Delivered {
            from: 2,
            epoch: 1,
            seq: 1,
        });
        state.apply(JournalEntry::PeerRetired {
            peer: 2,
            sent: 1,
            delivered: 1,
            expired: 1,
        });
        assert!(state.send.is_empty(), "retired peer's send state lingers");
        assert!(state.recv.is_empty(), "retired peer's recv state lingers");
        assert_eq!(state.retired_sent, 1);
        assert_eq!(state.retired_delivered, 1);
        assert_eq!(state.expired, 1);
    }

    #[test]
    fn recv_reset_folds_retired_deliveries() {
        let mut state = OutboxState::default();
        state.apply(JournalEntry::Delivered {
            from: 2,
            epoch: 1,
            seq: 1,
        });
        state.apply(JournalEntry::Delivered {
            from: 2,
            epoch: 1,
            seq: 2,
        });
        state.apply(JournalEntry::RecvReset {
            from: 2,
            epoch: 8,
            retired: 2,
        });
        state.apply(JournalEntry::Delivered {
            from: 2,
            epoch: 8,
            seq: 1,
        });
        let r = &state.recv[&2];
        assert_eq!(r.epoch, 8);
        assert_eq!(r.last_delivered, 1);
        assert_eq!(r.retired, 2);
    }
}
