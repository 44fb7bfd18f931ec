//! Fault containment: failure classification, the dead-letter queue, and
//! handler-fault injection for tests.
//!
//! Beehive's model promises that a bee is an *isolated* thread of execution
//! over its mapped cells. The supervision layer makes that promise hold under
//! failure: a handler `Err` or panic rolls back the transaction and is
//! contained at the bee boundary — the envelope is redelivered with
//! exponential backoff up to `HiveConfig::max_redeliveries`, then recorded in
//! the hive's [`DeadLetterStore`] (a bounded ring, like
//! [`crate::trace::TraceCollector`]). Bees that fail repeatedly are
//! quarantined by the hive (circuit breaker; see `queen.rs`), and mailboxes
//! can be bounded (`HiveConfig::mailbox_capacity`): a full one rejects the
//! incoming message to the dead-letter queue.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::id::{AppName, BeeId};
use crate::message::Envelope;
use crate::sync::{Mutex, Ring};

/// Why a message delivery failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureKind {
    /// The handler returned `Err` — the transaction rolled back.
    Error,
    /// The handler panicked — caught at the bee boundary, transaction
    /// rolled back, hive unaffected.
    Panic,
    /// The target bee was quarantined; the message dead-lettered fast
    /// without running the handler.
    Quarantined,
    /// The bee's bounded mailbox was full and the overflow policy rejected
    /// the message.
    MailboxOverflow,
    /// The message was owed to a hive that left the cluster (elastic
    /// scale-in): its reliable channel was retired before the envelope was
    /// acked, so it is dead-lettered instead of retried forever.
    PeerDeparted,
}

impl FailureKind {
    /// Whether this kind counts as a *handler* failure (it ran and failed),
    /// as opposed to an admission failure (quarantine / overflow).
    pub fn is_handler_failure(self) -> bool {
        matches!(self, FailureKind::Error | FailureKind::Panic)
    }

    /// Stable label for metrics exposition.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Error => "error",
            FailureKind::Panic => "panic",
            FailureKind::Quarantined => "quarantined",
            FailureKind::MailboxOverflow => "mailbox_overflow",
            FailureKind::PeerDeparted => "peer_departed",
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Best-effort string form of a caught panic payload (`&str` and `String`
/// payloads cover `panic!` with and without formatting).
pub fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// The supervised-redelivery backoff schedule: how long redelivery `attempt`
/// (1-based) of a failed message to `bee` waits before re-entering dispatch.
///
/// The delay is `base * 2^(attempt-1)` capped at `64 * base`, plus a
/// deterministic jitter in `[0, base)` derived from the `(bee, attempt)`
/// pair — so colliding retries of *different* bees spread out without a
/// random source (sans-IO determinism), and the schedule is reproducible
/// across runs and processes.
///
/// Properties (property-tested in `tests/proptest_backoff.rs`):
/// * monotonically non-decreasing in `attempt`,
/// * capped: strictly less than `65 * base` (absent `u64` saturation),
/// * a pure function of `(base_ms, attempt, bee)`.
pub fn backoff_delay_ms(base_ms: u64, attempt: u32, bee: crate::id::BeeId) -> u64 {
    let base = base_ms.max(1);
    // Clamp BEFORE deriving both the exponent and the jitter: past the cap
    // the whole delay is constant, which keeps the schedule non-decreasing
    // (a per-attempt jitter on a capped exponent could otherwise shrink).
    let a = attempt.clamp(1, 7);
    let exp = base.saturating_mul(1u64 << (a - 1));
    let jitter = splitmix64(bee.0 ^ u64::from(a).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % base;
    exp.saturating_add(jitter)
}

/// SplitMix64 finalizer: a cheap, well-distributed hash for jitter
/// derivation (not cryptographic).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// How long a quarantined bee rests before the half-open probe (one
/// message); a probe success closes the breaker, a failure re-arms it.
pub const QUARANTINE_COOLDOWN_MS: u64 = 5_000;

/// A message that exhausted its redelivery budget (or was rejected by
/// quarantine / mailbox overflow), with enough context to debug and requeue.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// Application whose handler failed.
    pub app: AppName,
    /// Bee the message was addressed to.
    pub bee: BeeId,
    /// Name of the failing handler (empty for admission failures).
    pub handler: String,
    /// Wire name of the message type.
    pub msg_type: String,
    /// Why the final attempt failed.
    pub kind: FailureKind,
    /// Last error string / panic payload (empty for admission failures).
    pub detail: String,
    /// Delivery attempts made (`deliveries + 1` for handler failures).
    pub attempts: u32,
    /// Trace id of the causal chain the message belonged to.
    pub trace_id: u64,
    /// Local-clock ms when the letter was recorded.
    pub recorded_ms: u64,
    /// The envelope itself, kept for requeueing.
    pub envelope: Envelope,
}

/// Letters a hive's [`DeadLetterStore`] retains; older ones are evicted, the
/// recorded total keeps counting.
pub const DEAD_LETTER_CAPACITY: usize = 1024;

/// A bounded ring of recent [`DeadLetter`]s, one per hive.
///
/// `recorded` counts every letter ever stored, including evicted ones —
/// that is the number the `beehive_dead_letters_total` counter reports.
#[derive(Debug)]
pub struct DeadLetterStore {
    ring: Ring<DeadLetter>,
}

impl DeadLetterStore {
    /// A store retaining up to `capacity` letters (minimum 1).
    pub fn new(capacity: usize) -> Self {
        DeadLetterStore {
            ring: Ring::new(capacity),
        }
    }

    /// Number of letters the ring can hold.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Total letters ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Letters currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no letters.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records a letter, evicting the oldest if the ring is full.
    pub fn record(&self, letter: DeadLetter) {
        self.ring.push(letter);
    }

    /// Clones the retained letters, oldest first.
    pub fn snapshot(&self) -> Vec<DeadLetter> {
        self.ring.snapshot()
    }

    /// Removes and returns the retained letters, oldest first. The
    /// `recorded` total is unaffected (it is a monotonic counter).
    pub fn drain(&self) -> Vec<DeadLetter> {
        self.ring.drain()
    }
}

/// Test-facing handler-fault injection: fail the next `times` invocations of
/// any handler of `app` triggered by `msg_type` (wire-name suffix match, so
/// tests can say `"Inc"` instead of the full module path).
///
/// Shared between the hive thread and whoever arms faults; consulted right
/// before each handler invocation.
#[derive(Debug, Default)]
pub struct HandlerFaults {
    entries: Mutex<Vec<FaultEntry>>,
}

#[derive(Debug)]
struct FaultEntry {
    app: String,
    msg_type: String,
    remaining: u32,
}

impl HandlerFaults {
    /// An empty fault table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a fault: the next `times` deliveries of `msg_type` to `app`
    /// fail with an injected error.
    pub fn fail(&self, app: &str, msg_type: &str, times: u32) {
        if times == 0 {
            return;
        }
        self.entries.lock().push(FaultEntry {
            app: app.to_string(),
            msg_type: msg_type.to_string(),
            remaining: times,
        });
    }

    /// Consumes one armed fault for `(app, msg_type)` if any remains.
    pub fn should_fail(&self, app: &str, msg_type: &str) -> bool {
        let mut entries = self.entries.lock();
        let matches = |e: &FaultEntry| {
            e.app == app && (msg_type == e.msg_type || msg_type.ends_with(&e.msg_type))
        };
        let idx = entries.iter().position(matches);
        match idx {
            Some(i) => {
                entries[i].remaining -= 1;
                if entries[i].remaining == 0 {
                    entries.swap_remove(i);
                }
                true
            }
            None => false,
        }
    }

    /// Total armed (unconsumed) failures.
    pub fn armed(&self) -> u32 {
        self.entries.lock().iter().map(|e| e.remaining).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_kind_classification() {
        assert!(FailureKind::Error.is_handler_failure());
        assert!(FailureKind::Panic.is_handler_failure());
        assert!(!FailureKind::Quarantined.is_handler_failure());
        assert!(!FailureKind::MailboxOverflow.is_handler_failure());
        assert_eq!(FailureKind::Panic.label(), "panic");
    }

    #[test]
    fn fault_table_arms_and_decrements() {
        let faults = HandlerFaults::new();
        faults.fail("counter", "Inc", 2);
        assert_eq!(faults.armed(), 2);
        // Suffix match against the full wire name.
        assert!(faults.should_fail("counter", "my_crate::tests::Inc"));
        assert!(!faults.should_fail("other", "my_crate::tests::Inc"));
        assert!(faults.should_fail("counter", "Inc"));
        assert!(!faults.should_fail("counter", "Inc"), "budget exhausted");
        assert_eq!(faults.armed(), 0);
    }

    #[test]
    fn backoff_is_monotone_capped_and_deterministic() {
        use crate::id::{BeeId, HiveId};
        let bee = BeeId::new(HiveId(3), 7);
        let base = 100u64;
        let mut prev = 0u64;
        for attempt in 1..=20u32 {
            let d = backoff_delay_ms(base, attempt, bee);
            assert!(d >= prev, "attempt {attempt}: {d} < {prev}");
            assert!(d < 65 * base, "attempt {attempt}: {d} exceeds the cap");
            assert_eq!(d, backoff_delay_ms(base, attempt, bee), "deterministic");
            prev = d;
        }
        // Past the clamp the delay is constant (same exponent, same jitter).
        assert_eq!(
            backoff_delay_ms(base, 7, bee),
            backoff_delay_ms(base, 19, bee)
        );
        // A zero base behaves like base = 1 (no division by zero).
        assert!(backoff_delay_ms(0, 1, bee) >= 1);
    }
}
