//! The wire and disk formats, pinned.
//!
//! Every type that carries an opaque byte payload to a socket or a durable
//! file encodes it as `varint len + raw bytes` in one serializer call. That
//! must stay (a) byte-identical to what the per-element encoder produced
//! before, so old journals replay and mixed-version hives interoperate, and
//! (b) O(fields) in serializer calls, whatever the payload length — so
//! putting `#[derive(Serialize)]` back on one of these types fails here
//! rather than on a profile.

#[path = "golden/cases.rs"]
mod cases;
#[path = "golden/vectors.rs"]
mod vectors;

use beehive_core::channel::{ChannelDelivery, ChannelFrame, ChannelTuning, ReliableChannels};
use beehive_core::message::WireEnvelope;
use beehive_core::outbox::{JournalEntry, Outbox};
use beehive_core::{Analytics, ControlMsg, HiveId, HiveMetrics, SharedBytes, TxJournal};
use beehive_openflow::{PacketInEvent, PacketOutCmd, SwitchUpstream};
use beehive_raft::{Entry, RaftMessage, SnapshotRecord};
use beehive_wire::record::{fnv1a, record_checksum, RECORD_HEADER_LEN};
use beehive_wire::{Error, Serializer, Sink};
use serde::de::DeserializeOwned;
use serde::Serialize;

use cases::{cases, hive_metrics, pattern, LENGTHS};
use vectors::{Vector, HIVE_METRICS, JOURNAL_FILE, VECTORS};

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex literal"))
        .collect()
}

/// The full encoding a vector stands for.
fn expected(v: &Vector) -> Vec<u8> {
    let mut out = unhex(v.head);
    if out.len() < v.len {
        out.extend_from_slice(&pattern(v.n));
        out.extend_from_slice(&unhex(v.tail));
    }
    out
}

/// Calls the generic function `$f::<T>($bytes)` with `T` the type the golden
/// case `$name` is an encoding of.
macro_rules! as_case_type {
    ($name:expr, $f:ident($bytes:expr)) => {
        match $name {
            "WireEnvelope" => $f::<WireEnvelope>($bytes),
            "ChannelFrame" => $f::<ChannelFrame>($bytes),
            "PacketInEvent" => $f::<PacketInEvent>($bytes),
            "PacketOutCmd" => $f::<PacketOutCmd>($bytes),
            "SwitchUpstream" => $f::<SwitchUpstream>($bytes),
            "SharedBytes" => $f::<SharedBytes>($bytes),
            "TxJournal" => $f::<TxJournal>($bytes),
            "raft::Entry" => $f::<Entry>($bytes),
            "raft::SnapshotRecord" => $f::<SnapshotRecord>($bytes),
            n if n.starts_with("ControlMsg::") => $f::<ControlMsg>($bytes),
            n if n.starts_with("JournalEntry::") => $f::<JournalEntry>($bytes),
            n if n.starts_with("raft::") => $f::<RaftMessage>($bytes),
            other => panic!("golden case {other} has no type registered"),
        }
    };
}

/// Decodes `bytes` as `T` and encodes the result again.
fn reencode<T: Serialize + DeserializeOwned>(bytes: &[u8]) -> Result<Vec<u8>, Error> {
    let value: T = beehive_wire::from_slice(bytes)?;
    beehive_wire::to_vec(&value)
}

#[test]
fn vectors_cover_every_case_at_every_length() {
    for n in LENGTHS {
        for (name, _) in cases(n) {
            let pinned = VECTORS
                .iter()
                .any(|v| v.name == name && (v.n == n || v.n == 0));
            assert!(pinned, "{name} at payload length {n} has no golden vector");
        }
    }
}

#[test]
fn encoders_reproduce_the_parent_commits_bytes() {
    for v in VECTORS {
        let want = expected(v);
        assert_eq!(
            want.len(),
            v.len,
            "{} n={}: vector is inconsistent",
            v.name,
            v.n
        );
        assert_eq!(
            fnv1a(&want),
            v.fnv1a,
            "{} n={}: vector is inconsistent",
            v.name,
            v.n
        );
        let (_, got) = cases(v.n)
            .into_iter()
            .find(|(name, _)| *name == v.name)
            .unwrap_or_else(|| panic!("{} is not a case", v.name));
        assert_eq!(got, want, "{} n={}: encoding changed", v.name, v.n);
    }
}

#[test]
fn decoders_accept_the_parent_commits_bytes() {
    for v in VECTORS {
        let bytes = expected(v);
        let again = as_case_type!(v.name, reencode(&bytes))
            .unwrap_or_else(|e| panic!("{} n={}: golden bytes rejected: {e}", v.name, v.n));
        assert_eq!(
            again, bytes,
            "{} n={}: decode lost information",
            v.name, v.n
        );
    }
}

/// The report nests its platform scalars in one struct; on the wire they
/// are the flat fields they used to be.
#[test]
fn hive_metrics_keeps_the_parent_commits_bytes() {
    let want = unhex(HIVE_METRICS);
    assert_eq!(beehive_wire::to_vec(&hive_metrics(2, 7)).unwrap(), want);
    assert_eq!(reencode::<HiveMetrics>(&want).unwrap(), want);
}

/// The `/metrics` exposition is a format too: family order, HELP and TYPE
/// lines, label spelling and the zero-valued families, for two windows of
/// hive 1 and one of hive 2. `golden/metrics.prom` is what commit 8fb8c50
/// rendered for this input, less the eight lines of the two
/// `beehive_executor_*` families, which left with the report's `executor`
/// field.
#[test]
fn metrics_exposition_keeps_the_parent_commits_text() {
    let mut analytics = Analytics::default(); // no start instant: uptime 0
    for (hive, seq) in [(1, 1), (2, 1), (1, 2)] {
        analytics.ingest(&hive_metrics(hive, seq));
    }
    let want = include_str!("golden/metrics.prom").replace(
        "git_sha=\"unknown\"",
        &format!(
            "git_sha=\"{}\"",
            option_env!("BEEHIVE_GIT_SHA").unwrap_or("unknown")
        ),
    );
    assert_eq!(analytics.render_prometheus(), want);
}

/// `JOURNAL_FILE`'s records with each checksum recomputed by today's record
/// codec. The payloads are the pinned bytes; the checksum changed from
/// byte-wise FNV-1a to the word-wise record sum, and DESIGN.md §3.15 rules
/// out a reader for an older record checksum.
fn journal_file_resealed() -> Vec<u8> {
    let mut file = unhex(JOURNAL_FILE);
    let mut at = 0;
    while at < file.len() {
        let len = u32::from_le_bytes(file[at..at + 4].try_into().unwrap()) as usize;
        let payload = at + RECORD_HEADER_LEN..at + RECORD_HEADER_LEN + len;
        let sum = record_checksum(&file[payload.clone()]);
        file[at + 4..at + RECORD_HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        at = payload.end;
    }
    file
}

#[test]
fn old_format_outbox_journal_replays_to_the_same_state() {
    let path = std::env::temp_dir().join(format!("beehive-golden-{}.outbox", std::process::id()));
    // Under its old checksums the file is refused, not guessed at.
    std::fs::write(&path, unhex(JOURNAL_FILE)).unwrap();
    let refused = Outbox::open(&path).unwrap_err();
    assert_eq!(refused.kind(), std::io::ErrorKind::InvalidData);
    std::fs::write(&path, journal_file_resealed()).unwrap();
    let (_outbox, state) = Outbox::open(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    assert_eq!(state.epoch, Some(41));
    assert_eq!(state.torn_truncations, 0);
    // Peer 3 was retired: its state is gone, its counters folded in.
    assert_eq!(
        (state.retired_sent, state.retired_delivered, state.expired),
        (1, 0, 1)
    );
    assert_eq!(state.send.keys().copied().collect::<Vec<_>>(), [2]);
    let send = &state.send[&2];
    assert_eq!((send.next_seq, send.acked), (9, 3));
    // Sends 1..=5 carried 0, 1, 127, 128 and 300 bytes; the ack covered 1..=2.
    let unacked: Vec<(u64, Vec<u8>)> = send.unacked.clone().into_iter().collect();
    assert_eq!(
        unacked,
        [(3, pattern(127)), (4, pattern(128)), (5, pattern(300))]
    );
    assert_eq!(state.recv.keys().copied().collect::<Vec<_>>(), [2, 4]);
    let r2 = &state.recv[&2];
    assert_eq!((r2.epoch, r2.last_delivered, r2.retired), (10, 0, 2));
    assert!(r2.seen_ahead.is_empty());
    let r4 = &state.recv[&4];
    assert_eq!((r4.epoch, r4.last_delivered, r4.retired), (6, 5, 1));
    assert_eq!(r4.seen_ahead.iter().copied().collect::<Vec<_>>(), [7, 9]);

    // And today's encoder writes that file byte for byte.
    let path =
        std::env::temp_dir().join(format!("beehive-golden-{}-new.outbox", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let (mut outbox, _) = Outbox::open(&path).unwrap();
        for entry in cases::journal_file_entries() {
            outbox.append(&entry).unwrap();
        }
    }
    let written = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(written, journal_file_resealed());
}

/// Counts the primitives the serializer writes: one `put` per integer,
/// length prefix, string or bulk payload.
struct Puts(usize);

impl Sink for Puts {
    fn put(&mut self, _bytes: &[u8]) {
        self.0 += 1;
    }
}

fn puts<T: Serialize>(value: &T) -> usize {
    let mut ser = Serializer::with_sink(Puts(0));
    value.serialize(&mut ser).expect("serializes");
    ser.into_inner().0
}

/// Serializer calls to encode the `T` that `bytes` decodes to.
fn puts_of<T: Serialize + DeserializeOwned>(bytes: &[u8]) -> usize {
    puts(&beehive_wire::from_slice::<T>(bytes).expect("case decodes"))
}

/// `encoded_len` of the `T` that `bytes` decodes to.
fn encoded_len_of<T: Serialize + DeserializeOwned>(bytes: &[u8]) -> usize {
    beehive_wire::encoded_len(&beehive_wire::from_slice::<T>(bytes).expect("case decodes"))
        .expect("measures")
}

#[test]
fn serializer_calls_do_not_grow_with_the_payload() {
    for ((name, small), (_, large)) in cases(1).iter().zip(&cases(16_384)) {
        let at_1 = as_case_type!(*name, puts_of(small));
        let at_16k = as_case_type!(*name, puts_of(large));
        assert_eq!(
            at_1, at_16k,
            "{name}: {at_1} serializer calls for a 1-byte payload, {at_16k} for 16 KiB — \
             a byte field is being walked element by element"
        );
        assert!(at_1 <= 40, "{name}: {at_1} calls is not O(fields)");
    }
    // The counter does see a per-element walk when there is one.
    assert!(puts(&pattern(1_000)) > 1_000);
}

#[test]
fn encoded_len_matches_to_vec() {
    for n in LENGTHS {
        for (name, bytes) in cases(n) {
            let len = as_case_type!(name, encoded_len_of(&bytes));
            assert_eq!(len, bytes.len(), "{name} n={n}");
        }
    }
}

#[test]
fn bad_length_prefixes_on_the_bulk_path_are_errors_not_panics() {
    let frame = beehive_wire::to_vec(&ChannelFrame {
        epoch: 1,
        seq: 2,
        ack_epoch: 0,
        ack: 0,
        env: pattern(300),
    })
    .unwrap();
    let prefix_at = 32; // four u64 fields, then the payload's varint
    assert_eq!(&frame[prefix_at..prefix_at + 2], &[0xAC, 0x02]);

    // Every truncation, including mid-varint and mid-payload.
    for cut in 0..frame.len() {
        let err = beehive_wire::from_slice::<ChannelFrame>(&frame[..cut]).unwrap_err();
        assert!(matches!(err, Error::Eof), "cut at {cut}: {err}");
    }
    // A prefix that promises more than the input holds.
    let mut long = frame.clone();
    long[prefix_at] = 0xAD; // 301
    assert!(matches!(
        beehive_wire::from_slice::<ChannelFrame>(&long).unwrap_err(),
        Error::Eof
    ));
    // A prefix that promises less leaves trailing bytes.
    let mut short = frame.clone();
    short[prefix_at] = 0xAB; // 299
    assert!(matches!(
        beehive_wire::from_slice::<ChannelFrame>(&short).unwrap_err(),
        Error::TrailingBytes(1)
    ));
    // A length that overflows: u64::MAX, then an 11-byte varint.
    let mut huge = frame[..prefix_at].to_vec();
    beehive_wire::encode_varint(u64::MAX, &mut huge);
    huge.extend_from_slice(&[0; 16]);
    assert!(matches!(
        beehive_wire::from_slice::<ChannelFrame>(&huge).unwrap_err(),
        Error::Eof | Error::LengthOverflow(_)
    ));
    let mut overlong = frame[..prefix_at].to_vec();
    overlong.extend_from_slice(&[0x80; 11]);
    assert!(matches!(
        beehive_wire::from_slice::<ChannelFrame>(&overlong).unwrap_err(),
        Error::VarintOverflow
    ));
    // The channel reports all of these as malformed frames.
    let mut ch = ReliableChannels::new(HiveId(2), ChannelTuning::default(), None, 1);
    for bad in [
        &frame[..40],
        &long[..],
        &short[..],
        &huge[..],
        &overlong[..],
    ] {
        assert_eq!(ch.on_frame(HiveId(1), bad, 1), ChannelDelivery::Malformed);
    }
}

#[test]
fn wrap_frames_and_journals_what_the_owned_types_encode_to() {
    let dir = std::env::temp_dir().join(format!("beehive-golden-wrap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let env = pattern(1_500);
    let mut ch = ReliableChannels::new(HiveId(1), ChannelTuning::default(), Some(&dir), 5);
    let epoch = ch.epoch();
    let framed = ch.wrap(HiveId(2), env.clone(), 5);
    ch.commit();
    assert_eq!(
        framed,
        beehive_wire::to_vec(&ChannelFrame {
            epoch,
            seq: 1,
            ack_epoch: 0,
            ack: 0,
            env: env.clone(),
        })
        .unwrap()
    );
    drop(ch);
    // The journal holds exactly what appending the owned entries writes.
    let journal = std::fs::read(dir.join("hive-1.outbox")).unwrap();
    let twin = dir.join("twin.outbox");
    {
        let (mut ob, _) = Outbox::open(&twin).unwrap();
        ob.append(&JournalEntry::Epoch { epoch }).unwrap();
        ob.append(&JournalEntry::Send { to: 2, seq: 1, env })
            .unwrap();
    }
    assert_eq!(journal, std::fs::read(&twin).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}
