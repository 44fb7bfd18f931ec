//! The bench-owned `SwitchIo`: where an event completes.
//!
//! The driver app calls [`Sink::send`] on a hive thread with the bytes it
//! would write to a switch. A PACKET_OUT echoing an event id completes that
//! event: its time goes into a preallocated slot with one compare-exchange —
//! no lock, channel or allocation on this path. Handshake traffic during
//! set-up takes the slow path into a mutex-guarded queue the generator
//! drains.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::Thread;

use beehive_openflow::SwitchIo;

use crate::clock::now_ns;
use crate::packet::{parse_reply, port_of, Reply, FLAG_EXPECT_FLOOD, OFPP_FLOOD};
use crate::spec::SWITCHES;

/// One event's completion record. `cur` is the id the slot currently stands
/// for (slots are reused in the closed loop; a reply carrying an older id
/// is a duplicate); `done_ns` is 0 until the reply arrives.
#[derive(Default)]
struct Slot {
    cur: AtomicU64,
    done_ns: AtomicU64,
}

pub struct Sink {
    slots: Box<[Slot]>,
    /// Per switch: the FLOW_MOD seen since the last PACKET_OUT, as
    /// `dl_dst << 16 | out_port`, or 0. The rule for an event precedes its
    /// packet on the same FIFO, and only the switch's driver bee writes here.
    pending_rule: [AtomicU64; SWITCHES + 1],
    completed: AtomicU64,
    duplicates: AtomicU64,
    wrong: AtomicU64,
    other: Mutex<Vec<(u64, Vec<u8>)>>,
    /// The generator thread, unparked on each completion while it runs a
    /// closed loop (an open loop sleeps on its schedule instead).
    waiter: OnceLock<Thread>,
    wake_on_completion: AtomicBool,
}

/// Counters read between phases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SinkCounts {
    pub completed: u64,
    pub duplicates: u64,
    pub wrong: u64,
}

impl Sink {
    pub fn new(slots: usize) -> Self {
        Sink {
            slots: (0..slots).map(|_| Slot::default()).collect(),
            pending_rule: Default::default(),
            completed: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            wrong: AtomicU64::new(0),
            other: Mutex::new(Vec::new()),
            waiter: OnceLock::new(),
            wake_on_completion: AtomicBool::new(false),
        }
    }

    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Registers the calling thread as the one a completion wakes.
    pub fn set_waiter(&self) {
        let _ = self.waiter.set(std::thread::current());
    }

    pub fn wake_on_completion(&self, on: bool) {
        self.wake_on_completion.store(on, Ordering::SeqCst);
    }

    /// Readies slot `idx` for a new event and returns the id to embed: the
    /// slot index below, a generation above, never 0. Generator thread only.
    pub fn arm(&self, idx: usize) -> u64 {
        let slot = &self.slots[idx];
        let gen = (slot.cur.load(Ordering::Relaxed) >> 32) + 1;
        let id = gen << 32 | idx as u64;
        slot.done_ns.store(0, Ordering::Relaxed);
        // Release: a sink thread that reads this id also sees done_ns == 0.
        slot.cur.store(id, Ordering::Release);
        id
    }

    /// When slot `idx`'s current event completed, or 0.
    pub fn done_ns(&self, idx: usize) -> u64 {
        self.slots[idx].done_ns.load(Ordering::Acquire)
    }

    pub fn counts(&self) -> SinkCounts {
        SinkCounts {
            completed: self.completed.load(Ordering::SeqCst),
            duplicates: self.duplicates.load(Ordering::SeqCst),
            wrong: self.wrong.load(Ordering::SeqCst),
        }
    }

    /// Takes the downstream messages that were neither rule nor packet.
    pub fn take_other(&self) -> Vec<(u64, Vec<u8>)> {
        std::mem::take(&mut *self.other.lock().expect("sink queue lock"))
    }

    fn complete(&self, id: u64, now: u64) {
        let Some(slot) = self.slots.get((id & 0xFFFF_FFFF) as usize) else {
            self.wrong.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if slot.cur.load(Ordering::Acquire) != id
            || slot
                .done_ns
                .compare_exchange(0, now, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
        {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.completed.fetch_add(1, Ordering::Relaxed);
        if self.wake_on_completion.load(Ordering::Relaxed) {
            if let Some(t) = self.waiter.get() {
                t.unpark();
            }
        }
    }
}

impl SwitchIo for Sink {
    fn send(&self, dpid: u64, bytes: Vec<u8>) {
        let now = now_ns();
        let Some(pending) = self.pending_rule.get(dpid as usize) else {
            self.wrong.fetch_add(1, Ordering::Relaxed);
            return;
        };
        match parse_reply(&bytes) {
            Reply::FlowMod { dl_dst, out_port } => {
                let rule = dl_dst << 16 | u64::from(out_port);
                let host = (dl_dst & 0xFF) as u8;
                if out_port != port_of(host) || pending.swap(rule, Ordering::Relaxed) != 0 {
                    self.wrong.fetch_add(1, Ordering::Relaxed);
                }
            }
            Reply::PacketOut {
                id,
                flags,
                dl_dst,
                dst_host,
                out_port,
            } => {
                let rule = pending.swap(0, Ordering::Relaxed);
                let ok = if flags & FLAG_EXPECT_FLOOD != 0 {
                    out_port == OFPP_FLOOD && rule == 0
                } else {
                    out_port == port_of(dst_host) && rule == dl_dst << 16 | u64::from(out_port)
                };
                if !ok {
                    self.wrong.fetch_add(1, Ordering::Relaxed);
                }
                self.complete(id, now);
            }
            Reply::Other => self
                .other
                .lock()
                .expect("sink queue lock")
                .push((dpid, bytes)),
            Reply::Malformed => {
                self.wrong.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{mac, PacketInTemplate};
    use beehive_openflow::wire::{Action, FlowModCommand, Match, OfMessage};

    fn rule(dpid: u64, host: u8, port: u16) -> Vec<u8> {
        OfMessage::FlowMod {
            xid: 1,
            match_: Match::dl_dst_exact(mac(dpid, host)),
            cookie: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 5,
            actions: vec![Action::Output { port, max_len: 0 }],
        }
        .encode()
    }

    fn release(dpid: u64, src: u8, dst: u8, id: u64, flags: u8, port: u16) -> Vec<u8> {
        let up = PacketInTemplate::new(64).event(dpid, src, dst, id, flags);
        let OfMessage::PacketIn { data, in_port, .. } = OfMessage::decode(&up).unwrap() else {
            unreachable!()
        };
        OfMessage::PacketOut {
            xid: 2,
            buffer_id: u32::MAX,
            in_port,
            actions: vec![Action::Output { port, max_len: 0 }],
            data,
        }
        .encode()
    }

    #[test]
    fn rule_then_packet_completes_once() {
        let sink = Sink::new(4);
        let id = sink.arm(2);
        sink.send(3, rule(3, 9, 10));
        sink.send(3, release(3, 1, 9, id, 0, 10));
        assert!(sink.done_ns(2) > 0);
        assert_eq!(
            sink.counts(),
            SinkCounts {
                completed: 1,
                duplicates: 0,
                wrong: 0
            }
        );
        // The same reply again is a duplicate, and it arrives without a rule.
        sink.send(3, release(3, 1, 9, id, 0, 10));
        let c = sink.counts();
        assert_eq!((c.completed, c.duplicates, c.wrong), (1, 1, 1));
    }

    #[test]
    fn missing_or_wrong_rule_is_counted() {
        let sink = Sink::new(2);
        let id = sink.arm(0);
        sink.send(1, release(1, 1, 9, id, 0, 10));
        assert_eq!(sink.counts().wrong, 1, "packet without its rule");
        let id = sink.arm(1);
        sink.send(1, rule(1, 8, 9));
        sink.send(1, release(1, 1, 9, id, 0, 10));
        assert_eq!(sink.counts().wrong, 2, "rule for another host");
        sink.send(1, rule(1, 9, 11));
        assert_eq!(sink.counts().wrong, 3, "rule to the wrong port");
    }

    #[test]
    fn a_reply_for_a_reused_slot_is_a_duplicate() {
        let sink = Sink::new(1);
        let old = sink.arm(0);
        let new = sink.arm(0);
        assert_ne!(old, new);
        sink.send(1, rule(1, 9, 10));
        sink.send(1, release(1, 1, 9, old, 0, 10));
        assert_eq!(sink.done_ns(0), 0);
        assert_eq!(sink.counts().duplicates, 1);
    }

    #[test]
    fn floods_complete_learning_events_and_handshakes_queue() {
        let sink = Sink::new(1);
        let id = sink.arm(0);
        sink.send(5, release(5, 1, 2, id, FLAG_EXPECT_FLOOD, OFPP_FLOOD));
        assert_eq!(sink.counts().wrong, 0);
        assert!(sink.done_ns(0) > 0);
        sink.send(5, OfMessage::Hello { xid: 0 }.encode());
        assert_eq!(sink.take_other().len(), 1);
    }
}
