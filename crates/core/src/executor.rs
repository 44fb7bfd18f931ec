//! Bee execution: [`run_batch`], the one function that runs handlers, and
//! the worker pool that calls it when `HiveConfig::workers > 1`.
//!
//! The paper's central invariant — each bee exclusively owns its mapped
//! cells — is what makes one function enough: a bee's state, colony and
//! mail are all a handler may touch, so `run_batch` borrows exactly those,
//! runs the mail inside one transaction (a savepoint per message) and
//! hands back what the handlers asked for as [`BatchEffects`], applying none
//! of it. Turning effects into dispatch, control frames, replication and
//! registry proposals is `Hive::apply_batch`, on the hive thread.
//!
//! Two callers, differing only in who runs the call and how much mail it
//! gets (see `DESIGN.md`, "Execution model"):
//!
//! * `workers == 1`: the hive thread, one message per run-queue turn, with
//!   the bee borrowed in place from its queen.
//! * `workers > 1`: this module's pool, in **checkout / check-in** rounds.
//!   The hive drains its run queue and checks every runnable bee out of its
//!   queen ([`crate::queen::Queen::check_out`]: state, colony and the whole
//!   pending mailbox move into a [`BeeJob`]); bees with disjoint colonies
//!   share no state, so workers run the jobs concurrently without locks.
//!   The hive thread blocks until the whole round is back — so no delivery,
//!   registry event or control message can touch a checked-out bee — sorts
//!   the results by `(app, bee)`, checks every bee back in, and only then
//!   applies effects in that order. Bees that are migrating out or waiting
//!   for shipped state are never checked out.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use crate::app::{App, RcvCtx};
use crate::cell::{Cell, CellRef, WHOLE_DICT_KEY};
use crate::control::ControlMsg;
use crate::id::{BeeId, HiveId};
use crate::message::Envelope;
use crate::metrics::Instrumentation;
use crate::queen::CheckedOutBee;
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

/// What is fixed for one batch: which bee runs, where and when, and the
/// hive facilities the run consults.
pub(crate) struct BatchEnv<'a> {
    /// The application whose handlers run.
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
    /// The hive's span ring buffer (slot-level locking only).
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

/// What one message of a batch asked for. A failed message was rolled back:
/// it carries only its `failure`.
#[derive(Default)]
pub(crate) struct MsgEffects {
    /// How many messages the handler emitted: the next this many of the
    /// batch's [`BatchEffects::outbox`], in emit order.
    pub emitted: usize,
    /// Control messages the handler requested.
    pub control_out: Vec<(HiveId, ControlMsg)>,
    /// The committed journal to ship to the colony's replicas:
    /// `(replication seq, encoded journal)`.
    pub replicate: Option<(u64, Vec<u8>)>,
    /// Set when the handler failed, for supervised redelivery.
    pub failure: Option<FailedDelivery>,
}

/// Everything a batch asked for, applied by `Hive::apply_batch`. The hive
/// thread keeps one and hands it to every inline run, so its buffers are
/// reused rather than allocated per message.
#[derive(Default)]
pub(crate) struct BatchEffects {
    /// Per message, in message order.
    pub msgs: Vec<MsgEffects>,
    /// Every message the batch's handlers emitted, in message order, then
    /// emit order; [`MsgEffects::emitted`] splits it by message.
    pub outbox: Vec<Envelope>,
    /// The message, after every entry of `msgs`, that stopped the batch by
    /// touching a cell outside the colony.
    pub remap: Option<Remap>,
    /// Whether the *last* message's handler committed a retire request.
    /// Only the last message may retire a bee: every earlier one has more
    /// mail behind it, and a bee is only collected when idle.
    pub retire: bool,
    /// The transaction logs each run borrows, kept here between runs so
    /// their buffers are sized once per hive rather than once per bee.
    pub tx_logs: TxLogs,
}

/// Runs `mail` on one bee, the only place handlers are invoked, and leaves
/// what the handlers asked for in `effects` (empty on entry).
///
/// The whole batch runs inside ONE open transaction with a savepoint per
/// message: a handler failure (an `Err`, a panic, or an injected fault)
/// rolls back exactly its own message ([`TxState::rollback_to`]) while
/// committed messages' writes stay applied, and each committed message
/// ships and then clears its own replication journal
/// ([`TxState::journal_since`]).
///
/// A message that touches a cell outside `colony` is rolled back the same
/// way, whatever its handler returned, and stops the batch: it comes back
/// as [`BatchEffects::remap`], and the rest of `mail` stays unrun.
///
/// Handler statistics go to `instr`, which is locked per message and only
/// after the handler returned — handlers may lock it themselves (the
/// collector app drains it).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_batch(
    env: &BatchEnv<'_>,
    state: &mut BeeState,
    colony: &BTreeSet<Cell>,
    repl_seq: &mut u64,
    mail: &[(u16, Envelope)],
    instr: &Mutex<Instrumentation>,
    effects: &mut BatchEffects,
) {
    let BatchEnv {
        hive, bee, now_ms, ..
    } = *env;
    let app_name = env.app.name();
    effects.msgs.reserve(mail.len());

    let mut tx = TxState::begin_with(state, std::mem::take(&mut effects.tx_logs));
    for (hidx, envelope) in mail {
        let handler = env.app.handler(*hidx).expect("handler index valid");
        let in_type = envelope.msg.type_name();
        let msg_len = envelope.msg.encoded_len();
        let emitted_from = effects.outbox.len();

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
        // roll back the message, classify, and let the hive supervisor
        // decide between redelivery and the dead-letter queue.
        let outcome: Result<(), (FailureKind, String)> =
            if env.faults.should_fail(app_name, in_type) {
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
            tx: tx_back,
            unmapped,
            outbox,
            control_out,
            retire,
            ..
        } = ctx;
        tx = tx_back;
        effects.outbox = outbox;
        if let Some(cell) = unmapped.into_inner() {
            // Not a run: no statistics, and nothing overtakes it.
            tx.rollback_to(&sp);
            effects.outbox.truncate(emitted_from);
            effects.retire = false;
            effects.remap = Some(Remap {
                hidx: *hidx,
                env: envelope.clone(),
                cell,
            });
            break;
        }
        let mut done = MsgEffects::default();
        let ok = match outcome {
            Ok(()) => {
                let journal = tx.journal_since(&sp);
                // Colony replication: sequence and encode the journal.
                if !env.pinned && env.replicate && !journal.is_empty() {
                    *repl_seq += 1;
                    if let Ok(bytes) = beehive_wire::to_vec(&JournalView(journal)) {
                        done.replicate = Some((*repl_seq, bytes));
                    }
                }
                tx.clear_journal_since(&sp);
                done.emitted = effects.outbox.len() - emitted_from;
                done.control_out = control_out;
                effects.retire = retire;
                true
            }
            Err((kind, detail)) => {
                tx.rollback_to(&sp);
                effects.outbox.truncate(emitted_from);
                done.failure = Some(FailedDelivery {
                    hidx: *hidx,
                    handler: handler.name.clone(),
                    env: envelope.clone(),
                    kind,
                    detail,
                });
                effects.retire = false;
                false
            }
        };
        let emitted = &effects.outbox[emitted_from..];

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
            for out in emitted {
                stats.record_out(out.msg.encoded_len());
            }
            for out in emitted {
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
        effects.msgs.push(done);
    }
    // Per-message journals were cleared at their savepoints; the residual
    // commit is empty and O(1) — the writes are already in `state`.
    let (residue, tx_logs) = tx.commit_keeping_logs();
    debug_assert!(residue.is_empty(), "all journals drained per message");
    effects.tx_logs = tx_logs;
}

/// Whether `colony` holds `dict[key]`, itself or through its dictionary's
/// whole cell. Compares borrowed strings; builds no `Cell`.
pub(crate) fn colony_holds(colony: &BTreeSet<Cell>, dict: &str, key: &str) -> bool {
    colony.contains(&(dict, key) as &dyn CellRef)
        || colony.contains(&(dict, WHOLE_DICT_KEY) as &dyn CellRef)
}

/// One checked-out bee plus everything a worker needs to run its mailbox.
pub(crate) struct BeeJob {
    /// Index of the app in the hive's app table (round bookkeeping).
    pub app_idx: usize,
    /// The bee being run.
    pub bee: BeeId,
    /// The application (shared, immutable — handlers are `Send + Sync`).
    pub app: Arc<App>,
    /// The hive the bee lives on.
    pub hive: HiveId,
    /// Platform time for this round, in ms.
    pub now_ms: u64,
    /// Whether committed journals must be encoded for colony replication.
    pub replicate: bool,
    /// The bee's checked-out state, colony, replication sequence and mail;
    /// the run updates the first three in place.
    pub out: CheckedOutBee,
    /// The hive's span ring buffer.
    pub tracer: Arc<TraceCollector>,
    /// Shared handler-fault injection table (tests / chaos runs).
    pub faults: Arc<HandlerFaults>,
}

/// A job a worker has run: the bee's pieces to check back in (`job.out`)
/// plus what the run produced.
pub(crate) struct FinishedJob {
    /// The job, `out` as the run left it.
    pub job: BeeJob,
    /// What the handlers asked for.
    pub effects: BatchEffects,
    /// Handler statistics of this run plus the worker's own batch counters
    /// (`executor`), merged into the hive's store.
    pub instr: Instrumentation,
}

fn run_job(worker: usize, mut job: BeeJob) -> FinishedJob {
    let started = Instant::now();
    let delta = Mutex::new(Instrumentation::default());
    let mut effects = BatchEffects::default();
    run_batch(
        &BatchEnv {
            app: &job.app,
            hive: job.hive,
            bee: job.bee,
            pinned: job.out.pinned,
            now_ms: job.now_ms,
            replicate: job.replicate,
            tracer: &job.tracer,
            faults: &job.faults,
        },
        &mut job.out.state,
        &job.out.colony,
        &mut job.out.repl_seq,
        &job.out.mail,
        &delta,
        &mut effects,
    );
    // Free the processed mail here rather than on the hive thread; what a
    // re-map left unrun goes back to the hive.
    let ran = effects.msgs.len() + usize::from(effects.remap.is_some());
    job.out.mail.drain(..ran);
    let mut instr = delta.into_inner();
    instr.executor.record_batch(
        worker,
        effects.msgs.len() as u64,
        started.elapsed().as_nanos() as u64,
    );
    FinishedJob {
        job,
        effects,
        instr,
    }
}

/// The worker pool. Jobs go out over one channel whose receiving end the
/// workers share behind a lock; results come back on another. Dropping the
/// executor closes the job channel and joins every worker.
pub(crate) struct Executor {
    job_tx: Option<Sender<BeeJob>>,
    res_rx: Receiver<FinishedJob>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Spawns `workers` threads (named `bh-worker-N`).
    pub(crate) fn new(workers: usize) -> Self {
        assert!(workers >= 1);
        let (job_tx, job_rx) = channel::<BeeJob>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (res_tx, res_rx) = channel::<FinishedJob>();
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let rx = job_rx.clone();
            let tx = res_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("bh-worker-{w}"))
                .spawn(move || {
                    // Handler panics are caught per message inside
                    // `run_batch`, so the worker itself never unwinds on
                    // application faults.
                    loop {
                        // The lock is released before the job runs.
                        let job = rx.lock().recv();
                        let Ok(job) = job else { break };
                        if tx.send(run_job(w, job)).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn executor worker");
            handles.push(handle);
        }
        Executor {
            job_tx: Some(job_tx),
            res_rx,
            handles,
        }
    }

    /// Queues a job for the pool.
    pub(crate) fn submit(&self, job: BeeJob) {
        self.job_tx
            .as_ref()
            .expect("executor alive")
            .send(job)
            .expect("executor workers alive");
    }

    /// Blocks for the next finished job. Handler failures (including
    /// panics) ride back inside its effects — they never propagate as
    /// panics to the hive thread.
    pub(crate) fn collect(&self) -> FinishedJob {
        self.res_rx.recv().expect("executor workers alive")
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.job_tx = None; // close the channel; workers drain and exit
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
