//! The hive thread's per-message bookkeeping, published once per step.
//!
//! Every handler run feeds the hive's instruments (paper §3): the bee's
//! [`BeeStats`](crate::metrics::BeeStats), its cell count and pinned flag,
//! the `(app, message type)` latency histograms, provenance, the message
//! matrix and a causal-trace span. A [`Tally`] records a run on the hive
//! thread with no lock and no keyed map, indexed by what the run already
//! knows: its app and handler index, a per-epoch slot the bee holds a
//! [`TallyLink`] to, and the source hive. [`Tally::publish`] folds it into
//! the shared [`Instrumentation`] and starts a new epoch;
//! [`Tally::publish_spans`] hands the spans to the hive's span ring.
//!
//! The hive publishes at the end of every step and just before any local
//! singleton runs — the collector, which drains the store, is one — so a
//! reader on the hive thread sees exactly the runs before it. A reader on
//! another thread may see the store up to one step old (DESIGN §3.10).

use crate::app::App;
use crate::id::{BeeId, HiveId};
use crate::message::{Envelope, Source};
use crate::metrics::{BeeStats, Instrumentation, MsgLatency};
use crate::trace::{SpanRecord, TraceCollector, TraceContext};

/// Where a bee's slot is in the tally's current epoch. A link from an
/// earlier epoch is stale: the bee's next run takes a fresh slot.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TallyLink {
    epoch: u64,
    slot: usize,
}

/// What one run tells the tally, besides the messages it emitted.
pub(crate) struct Run {
    pub app_idx: usize,
    pub hidx: u16,
    pub msg_type: &'static str,
    pub bee: BeeId,
    pub pinned: bool,
    pub src: Source,
    pub msg_len: usize,
    pub cells: u64,
    pub ok: bool,
    pub trace: TraceContext,
    pub start_ms: u64,
    pub wait_us: u64,
    pub runtime_ns: u64,
}

/// One handler's runs since the last publish.
#[derive(Default)]
struct HandlerTally {
    msg_type: &'static str,
    latency: MsgLatency,
    /// Emissions by output type. Entries outlive their epoch at zero, so a
    /// warm handler records without allocating.
    provenance: Vec<(&'static str, u64)>,
}

/// One bee's runs (and cell-count writes) in this epoch. The slot belongs
/// to the tally, so a bee that leaves the hive mid-step keeps its counts.
#[derive(Default)]
struct BeeTally {
    app_idx: usize,
    bee: u64,
    /// The scalar counts; its per-source maps stay empty, the lists below
    /// count instead.
    stats: BeeStats,
    in_by_hive: Vec<(u32, u64)>,
    in_by_bee: Vec<(u64, u64)>,
    /// The last cell count written for the bee, if any.
    cells: Option<u64>,
    pinned: bool,
}

impl BeeTally {
    /// Empties the slot for `bee`, keeping its lists' buffers.
    fn reset(&mut self, app_idx: usize, bee: BeeId) {
        let (mut in_by_hive, mut in_by_bee) = (
            std::mem::take(&mut self.in_by_hive),
            std::mem::take(&mut self.in_by_bee),
        );
        in_by_hive.clear();
        in_by_bee.clear();
        *self = BeeTally {
            app_idx,
            bee: bee.0,
            in_by_hive,
            in_by_bee,
            ..BeeTally::default()
        };
    }
}

/// A span as the tally keeps it: the run's app by index, not by name.
struct PendingSpan {
    app_idx: usize,
    bee: BeeId,
    trace: TraceContext,
    msg_type: &'static str,
    start_ms: u64,
    wait_us: u64,
    runtime_ns: u64,
    ok: bool,
}

/// Spans the tally holds before the hive hands them to the span ring
/// without waiting for the publish ([`Tally::spans_full`]): a long step
/// takes the ring's lock once per batch and keeps a buffer far smaller
/// than the ring's `TRACE_CAPACITY`.
const SPAN_BATCH: usize = 256;

/// The hive's unpublished bookkeeping (see the module docs).
pub(crate) struct Tally {
    /// Bumped by every publish; links from earlier epochs are stale.
    epoch: u64,
    /// Indexed `[app_idx][handler idx]`, grown as apps and handlers run.
    handlers: Vec<Vec<HandlerTally>>,
    /// This epoch's bee slots are `bees[..used]`; the rest wait for reuse.
    bees: Vec<BeeTally>,
    used: usize,
    /// Bee-to-bee deliveries by source hive (this hive is the destination).
    matrix: Vec<(u32, u64)>,
    /// Spans in run order, at most [`SPAN_BATCH`].
    spans: Vec<PendingSpan>,
    /// Whether anything was recorded since the last publish.
    dirty: bool,
}

/// Counts one more `key` in a short association list.
fn bump<K: PartialEq>(list: &mut Vec<(K, u64)>, key: K) {
    match list.iter_mut().find(|(k, _)| *k == key) {
        Some((_, c)) => *c += 1,
        None => list.push((key, 1)),
    }
}

impl Tally {
    /// An empty tally.
    pub(crate) fn new() -> Self {
        Tally {
            epoch: 1,
            handlers: Vec::new(),
            bees: Vec::new(),
            used: 0,
            matrix: Vec::new(),
            spans: Vec::new(),
            dirty: false,
        }
    }

    /// Whether nothing was recorded since the last publish.
    pub(crate) fn is_empty(&self) -> bool {
        !self.dirty
    }

    /// The bee's slot in this epoch, taken through `link` when it has one.
    fn slot(&mut self, app_idx: usize, bee: BeeId, link: Option<&mut TallyLink>) -> &mut BeeTally {
        self.dirty = true;
        if let Some(l) = &link {
            if l.epoch == self.epoch {
                return &mut self.bees[l.slot];
            }
        }
        let slot = self.used;
        self.used += 1;
        if slot == self.bees.len() {
            self.bees.push(BeeTally::default());
        }
        if let Some(l) = link {
            *l = TallyLink {
                epoch: self.epoch,
                slot,
            };
        }
        let t = &mut self.bees[slot];
        t.reset(app_idx, bee);
        t
    }

    /// Records the bee's cell count; the last write before a publish wins.
    pub(crate) fn set_cells(
        &mut self,
        app_idx: usize,
        bee: BeeId,
        link: Option<&mut TallyLink>,
        cells: u64,
    ) {
        self.slot(app_idx, bee, link).cells = Some(cells);
    }

    /// Records one handler run of the bee `link` belongs to, and the
    /// messages it emitted.
    pub(crate) fn record(&mut self, run: &Run, link: &mut TallyLink, outbox: &[Envelope]) {
        let src_bee = run.src.bee();
        let t = self.slot(run.app_idx, run.bee, Some(link));
        t.stats.msgs_in += 1;
        t.stats.bytes_in += run.msg_len as u64;
        match src_bee {
            Some(b) => {
                bump(&mut t.in_by_hive, run.src.hive().0);
                bump(&mut t.in_by_bee, b.0);
            }
            None => t.stats.external_in += 1,
        }
        t.stats.handler_nanos += run.runtime_ns;
        t.stats.errors += u64::from(!run.ok);
        for out in outbox {
            t.stats.record_out(out.msg.encoded_len());
        }
        t.cells = Some(run.cells);
        t.pinned |= run.pinned;

        if src_bee.is_some() {
            bump(&mut self.matrix, run.src.hive().0);
        }

        if self.handlers.len() <= run.app_idx {
            self.handlers.resize_with(run.app_idx + 1, Vec::new);
        }
        let app = &mut self.handlers[run.app_idx];
        let hidx = run.hidx as usize;
        if app.len() <= hidx {
            app.resize_with(hidx + 1, HandlerTally::default);
        }
        let h = &mut app[hidx];
        debug_assert!(h.latency.is_empty() || h.msg_type == run.msg_type);
        h.msg_type = run.msg_type;
        h.latency.queue_wait.observe(run.wait_us);
        h.latency.runtime.observe(run.runtime_ns / 1_000);
        for out in outbox {
            bump(&mut h.provenance, out.msg.type_name());
        }

        self.spans.push(PendingSpan {
            app_idx: run.app_idx,
            bee: run.bee,
            trace: run.trace,
            msg_type: run.msg_type,
            start_ms: run.start_ms,
            wait_us: run.wait_us,
            runtime_ns: run.runtime_ns,
            ok: run.ok,
        });
    }

    /// Folds the counts recorded since the last publish into `instr` and
    /// starts a new epoch; the spans wait for [`Tally::publish_spans`].
    /// Allocates only for keys `instr` does not hold yet.
    pub(crate) fn publish(&mut self, apps: &[App], hive: HiveId, instr: &mut Instrumentation) {
        if !self.dirty {
            return;
        }
        for t in &mut self.bees[..self.used] {
            if t.stats.msgs_in > 0 {
                let stats = instr
                    .bees
                    .entry((apps[t.app_idx].name().clone(), t.bee))
                    .or_default();
                stats.merge(&t.stats);
                for &(h, c) in &t.in_by_hive {
                    *stats.in_by_hive.entry(h).or_insert(0) += c;
                }
                for &(b, c) in &t.in_by_bee {
                    *stats.in_by_bee.entry(b).or_insert(0) += c;
                }
            }
            if let Some(cells) = t.cells {
                instr.bee_cells.insert(t.bee, cells);
            }
            if t.pinned {
                instr.pinned.insert(t.bee);
            }
        }
        self.used = 0;

        for (src, count) in &mut self.matrix {
            if *count > 0 {
                *instr.msg_matrix.entry((*src, hive.0)).or_insert(0) += *count;
                *count = 0;
            }
        }

        for (app, handlers) in apps.iter().zip(&mut self.handlers) {
            for h in handlers {
                if h.latency.is_empty() {
                    continue;
                }
                for (out, count) in &mut h.provenance {
                    if *count > 0 {
                        *instr
                            .provenance
                            .entry((app.name().clone(), h.msg_type, *out))
                            .or_insert(0) += *count;
                        *count = 0;
                    }
                }
                instr
                    .latency
                    .entry((app.name().clone(), h.msg_type))
                    .or_default()
                    .merge(&h.latency);
                h.latency = MsgLatency::default();
            }
        }

        self.epoch += 1;
        self.dirty = false;
    }

    /// Whether the span buffer holds [`SPAN_BATCH`] spans: the hive hands
    /// them to the ring before the next run.
    pub(crate) fn spans_full(&self) -> bool {
        self.spans.len() >= SPAN_BATCH
    }

    /// Hands the spans recorded since the last call to `tracer`, oldest
    /// first, under one lock.
    pub(crate) fn publish_spans(&mut self, apps: &[App], hive: HiveId, tracer: &TraceCollector) {
        if self.spans.is_empty() {
            return;
        }
        tracer.record_all(self.spans.drain(..).map(|s| SpanRecord {
            trace_id: s.trace.trace_id,
            span_id: s.trace.span_id,
            parent_span: s.trace.parent_span,
            hive,
            app: apps[s.app_idx].name().clone(),
            bee: s.bee,
            msg_type: s.msg_type,
            start_ms: s.start_ms,
            queue_wait_us: s.wait_us,
            runtime_ns: s.runtime_ns,
            ok: s.ok,
        }));
    }
}
