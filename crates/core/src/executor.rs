//! Bee execution: [`run_message`], the one function that runs handlers.
//!
//! The paper's central invariant — each bee exclusively owns its mapped
//! cells — is what makes one function enough: a bee's state, colony and
//! mail are all a handler may touch, so `run_message` borrows exactly
//! those, runs one message inside one transaction and hands back what the
//! handler asked for as [`Effects`], applying none of it. Turning effects
//! into dispatch, control frames, replication and registry proposals is
//! `Hive::apply_effects`.
//!
//! Both run on the hive thread: `Hive::run_inline` takes one message per
//! run-queue turn and borrows the bee in place from its queen. A hive runs
//! its bees one at a time; Beehive scales out by placing bees on more hives
//! (see `DESIGN.md`, "Execution model").

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Condvar;
use std::time::{Duration, Instant};

use crate::app::{App, RcvCtx};
use crate::cell::{Cell, CellRef, WHOLE_DICT_KEY};
use crate::control::ControlMsg;
use crate::id::{BeeId, HiveId};
use crate::message::Envelope;
use crate::metrics::Instrumentation;
use crate::state::{BeeState, JournalView, TxLogs, TxState};
use crate::supervision::{panic_detail, FailureKind, HandlerFaults};
use crate::sync::{wait_timeout, Mutex};
use crate::trace::{SpanRecord, TraceCollector};

/// The hive thread's idle wait. An `unpark` that arrives while the thread is
/// *not* parked is remembered, so a wakeup between the idle check and the
/// park is never lost.
///
/// The state is one atomic (empty, parked or notified). Only an `unpark`
/// that finds the thread parked takes the lock and signals the condvar;
/// every other `unpark` — the common case while the hive is busy — is one
/// atomic swap and no system call. An `unpark`'s swap is `Release` and
/// `park` consumes the notification with `Acquire`, so whatever the waker
/// published before waking the hive (a queued message) is visible to it.
pub(crate) struct Parker {
    state: AtomicU8,
    lock: Mutex<()>,
    cv: Condvar,
}

const EMPTY: u8 = 0;
const PARKED: u8 = 1;
const NOTIFIED: u8 = 2;

impl Parker {
    pub(crate) fn new() -> Self {
        Parker {
            state: AtomicU8::new(EMPTY),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Blocks until [`Parker::unpark`] is called or `timeout` elapses.
    /// Returns immediately if an unpark is already pending. One thread
    /// parks; any number unpark.
    pub(crate) fn park(&self, timeout: Duration) {
        if self
            .state
            .compare_exchange(NOTIFIED, EMPTY, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
        let guard = self.lock.lock();
        // Announce the park under the lock: an `unpark` that sees PARKED
        // takes the lock before signalling, so it cannot signal before
        // the wait below has released it.
        if self
            .state
            .compare_exchange(EMPTY, PARKED, Ordering::Relaxed, Ordering::Acquire)
            .is_ok()
        {
            drop(wait_timeout(&self.cv, guard, timeout));
        }
        // Woken, timed out, or notified before parking: either way any
        // pending notification is consumed here.
        self.state.swap(EMPTY, Ordering::Acquire);
    }

    /// Wakes (or pre-wakes) the parked thread.
    pub(crate) fn unpark(&self) {
        if self.state.swap(NOTIFIED, Ordering::Release) == PARKED {
            drop(self.lock.lock());
            self.cv.notify_one();
        }
    }
}

/// What is fixed for one run: which bee runs, where and when, and the
/// hive facilities the run consults.
pub(crate) struct RunEnv<'a> {
    /// The application whose handler runs.
    pub app: &'a App,
    /// The hive the bee lives on.
    pub hive: HiveId,
    /// The bee being run.
    pub bee: BeeId,
    /// Whether the bee is pinned (local singleton): pinned bees may touch
    /// any cell and are not replicated.
    pub pinned: bool,
    /// Platform time of this run, in ms.
    pub now_ms: u64,
    /// Whether committed journals must be encoded for colony replication.
    pub replicate: bool,
    /// The hive's span ring buffer.
    pub tracer: &'a TraceCollector,
    /// Handler-fault injection table (tests / chaos runs).
    pub faults: &'a HandlerFaults,
}

/// One message whose handler failed (error or panic). The hive thread
/// decides its fate: redeliver with backoff or dead-letter once the budget
/// is exhausted.
pub(crate) struct FailedDelivery {
    /// Handler index the envelope was dispatched to.
    pub hidx: u16,
    /// Human-readable handler name (for the dead letter).
    pub handler: String,
    /// The envelope, untouched — `deliveries` is bumped by the supervisor.
    pub env: Envelope,
    /// How the handler failed.
    pub kind: FailureKind,
    /// Error string or panic payload.
    pub detail: String,
}

/// A message whose handler touched `cell` outside the bee's colony, rolled
/// back to be re-routed with `cell` added. Not a failure: it runs again.
pub(crate) struct Remap {
    pub hidx: u16,
    pub env: Envelope,
    pub cell: Cell,
}

/// Everything one message's run asked for, applied by
/// `Hive::apply_effects`. A failed message was rolled back: it carries only
/// its `failure`; a re-mapped one only its `remap`. The hive thread keeps
/// one and hands it to every run, so its buffers are reused rather than
/// allocated per message.
#[derive(Default)]
pub(crate) struct Effects {
    /// Control messages the handler requested.
    pub control_out: Vec<(HiveId, ControlMsg)>,
    /// The committed journal to ship to the colony's replicas:
    /// `(replication seq, encoded journal)`.
    pub replicate: Option<(u64, Vec<u8>)>,
    /// Set when the handler failed, for supervised redelivery.
    pub failure: Option<FailedDelivery>,
    /// The messages the handler emitted, in emit order.
    pub outbox: Vec<Envelope>,
    /// Set when the message touched a cell outside the colony: it was
    /// rolled back and is neither a success nor a failure.
    pub remap: Option<Remap>,
    /// Whether the handler committed a retire request.
    pub retire: bool,
    /// The transaction logs each run borrows, kept here between runs so
    /// their buffers are sized once per hive rather than once per bee.
    pub tx_logs: TxLogs,
}

/// Runs one message, `mail`, on one bee, the only place handlers are
/// invoked, and leaves what the handler asked for in `effects` (empty on
/// entry).
///
/// The message runs inside one transaction from a savepoint: a handler
/// failure (an `Err`, a panic, or an injected fault) rolls the message back
/// ([`TxState::rollback_to`]); a committed message ships its replication
/// journal ([`TxState::journal_since`]).
///
/// A message that touches a cell outside `colony` is rolled back the same
/// way, whatever its handler returned, and comes back as
/// [`Effects::remap`].
///
/// Handler statistics go to `instr`, which is locked only after the
/// handler returned — handlers may lock it themselves (the collector app
/// drains it).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_message(
    env: &RunEnv<'_>,
    state: &mut BeeState,
    colony: &BTreeSet<Cell>,
    repl_seq: &mut u64,
    mail: &(u16, Envelope),
    instr: &Mutex<Instrumentation>,
    effects: &mut Effects,
) {
    let RunEnv {
        hive, bee, now_ms, ..
    } = *env;
    let app_name = env.app.name();
    let (hidx, envelope) = mail;
    let handler = env.app.handler(*hidx).expect("handler index valid");
    let in_type = envelope.msg.type_name();
    let msg_len = envelope.msg.encoded_len();

    let mut tx = TxState::begin_with(state, std::mem::take(&mut effects.tx_logs));
    let sp = tx.savepoint();
    let mut ctx = RcvCtx {
        hive,
        app: app_name.clone(),
        bee,
        src: envelope.src,
        now_ms,
        trace: envelope.trace,
        deliveries: envelope.deliveries,
        tx,
        colony: (!env.pinned).then_some(colony),
        unmapped: Default::default(),
        outbox: std::mem::take(&mut effects.outbox),
        control_out: Vec::new(),
        retire: false,
    };
    let started = Instant::now();
    // A panic is contained at the message boundary, exactly like `Err`:
    // roll back the message, classify, and let the hive supervisor decide
    // between redelivery and the dead-letter queue.
    let outcome: Result<(), (FailureKind, String)> = if env.faults.should_fail(app_name, in_type) {
        Err((FailureKind::Error, "injected handler fault".to_string()))
    } else {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handler.rcv(envelope.msg.as_ref(), &mut ctx)
        })) {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err((FailureKind::Error, e)),
            Err(payload) => Err((FailureKind::Panic, panic_detail(payload.as_ref()))),
        }
    };
    let elapsed = started.elapsed().as_nanos() as u64;

    let RcvCtx {
        mut tx,
        unmapped,
        outbox,
        control_out,
        retire,
        ..
    } = ctx;
    effects.outbox = outbox;
    if let Some(cell) = unmapped.into_inner() {
        // Not a run: no statistics.
        tx.rollback_to(&sp);
        effects.outbox.clear();
        effects.remap = Some(Remap {
            hidx: *hidx,
            env: envelope.clone(),
            cell,
        });
    } else {
        let ok = match outcome {
            Ok(()) => {
                let journal = tx.journal_since(&sp);
                // Colony replication: sequence and encode the journal.
                if !env.pinned && env.replicate && !journal.is_empty() {
                    *repl_seq += 1;
                    if let Ok(bytes) = beehive_wire::to_vec(&JournalView(journal)) {
                        effects.replicate = Some((*repl_seq, bytes));
                    }
                }
                tx.clear_journal_since(&sp);
                effects.control_out = control_out;
                effects.retire = retire;
                true
            }
            Err((kind, detail)) => {
                tx.rollback_to(&sp);
                effects.outbox.clear();
                effects.failure = Some(FailedDelivery {
                    hidx: *hidx,
                    handler: handler.name.clone(),
                    env: envelope.clone(),
                    kind,
                    detail,
                });
                false
            }
        };

        let wait_us = now_ms.saturating_sub(envelope.trace.enqueued_ms) * 1_000;
        {
            let mut instr = instr.lock();
            if envelope.src.bee().is_some() {
                instr.record_matrix(envelope.src.hive(), hive);
            }
            let stats = instr.bee(app_name, bee);
            stats.record_in(envelope.src.hive(), envelope.src.bee(), msg_len);
            stats.handler_nanos += elapsed;
            if !ok {
                stats.errors += 1;
            }
            for out in &effects.outbox {
                stats.record_out(out.msg.encoded_len());
            }
            for out in &effects.outbox {
                instr.record_provenance(app_name, in_type, out.msg.type_name());
            }
            instr.record_in_type(app_name, in_type);
            instr.bee_cells.insert(bee.0, colony.len() as u64);
            if env.pinned {
                instr.pinned.insert(bee.0);
            }
            instr.record_latency(app_name, in_type, wait_us, elapsed / 1_000);
        }
        env.tracer.record(SpanRecord {
            trace_id: envelope.trace.trace_id,
            span_id: envelope.trace.span_id,
            parent_span: envelope.trace.parent_span,
            hive,
            app: app_name.clone(),
            bee,
            msg_type: in_type,
            start_ms: now_ms,
            queue_wait_us: wait_us,
            runtime_ns: elapsed,
            ok,
        });
    }
    // The journal was cleared at the savepoint or rolled back; the residual
    // commit is empty and O(1) — the writes are already in `state`.
    let (residue, tx_logs) = tx.commit_keeping_logs();
    debug_assert!(residue.is_empty(), "the journal was drained");
    effects.tx_logs = tx_logs;
}

/// Whether `colony` holds `dict[key]`, itself or through its dictionary's
/// whole cell. Compares borrowed strings; builds no `Cell`.
pub(crate) fn colony_holds(colony: &BTreeSet<Cell>, dict: &str, key: &str) -> bool {
    colony.contains(&(dict, key) as &dyn CellRef)
        || colony.contains(&(dict, WHOLE_DICT_KEY) as &dyn CellRef)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn parker_remembers_early_unpark() {
        let p = Parker::new();
        p.unpark();
        let started = std::time::Instant::now();
        p.park(Duration::from_secs(5));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "pending unpark must not block"
        );
    }

    #[test]
    fn parker_times_out() {
        let p = Parker::new();
        let started = std::time::Instant::now();
        p.park(Duration::from_millis(20));
        assert!(started.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn unparks_while_running_make_one_park_return_at_once() {
        let p = Parker::new();
        for _ in 0..1_000 {
            p.unpark();
        }
        let started = std::time::Instant::now();
        p.park(Duration::from_secs(5));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "the pending unpark returns the first park at once"
        );
        let started = std::time::Instant::now();
        p.park(Duration::from_millis(50));
        assert!(
            started.elapsed() >= Duration::from_millis(40),
            "the unparks were consumed together: the next park waits"
        );
    }

    #[test]
    fn parker_wakes_across_threads() {
        let p = Arc::new(Parker::new());
        let p2 = p.clone();
        let woken = Arc::new(AtomicUsize::new(0));
        let woken2 = woken.clone();
        let t = std::thread::spawn(move || {
            p2.park(Duration::from_secs(10));
            woken2.store(1, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(50));
        p.unpark();
        t.join().unwrap();
        assert_eq!(woken.load(Ordering::SeqCst), 1);
    }
}
