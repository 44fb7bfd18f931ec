//! Causal message tracing.
//!
//! Every [`crate::message::Envelope`] carries a [`TraceContext`]: a trace id
//! shared by a whole causal chain of messages, a span id unique to this
//! message, and the span id of the message whose handler emitted it. The
//! context is created at external injection ([`TraceContext::root`]),
//! propagated across local emits by [`TraceContext::child`], and shipped between hives inside
//! [`crate::message::WireEnvelope`] — so a cross-hive chain (e.g. the TE
//! pipeline of Figure 2) can be reassembled end to end.
//!
//! Each hive records one [`TraceSpan`] per handler invocation into a
//! bounded [`TraceCollector`] (a [`Ring`]); the oldest span is evicted at
//! capacity, so recording stays O(1). [`chrome_trace`] renders the spans of
//! one trace id, gathered from one hive or many, as one `chrome://tracing` /
//! Perfetto-compatible JSON document.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::clock::Clock;
use crate::events::escape_json;
use crate::id::{AppName, BeeId, HiveId, Name};
use crate::sync::{wait_timeout, Mutex, Ring};

/// Process-wide span/trace id counter. Ids only need to be unique within a
/// trace's lifetime; mixing in the hive id keeps them unique across hives
/// without any coordination.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh id: the hive id in the top 20 bits, a process-local
/// counter in the low 44.
fn next_id(hive: HiveId) -> u64 {
    let seq = NEXT_ID.fetch_add(1, Ordering::Relaxed) & ((1 << 44) - 1);
    ((hive.0 as u64) << 44) | seq
}

/// Causal context carried on every envelope.
///
/// `enqueued_ms` is *not* part of the causal identity: it is stamped by the
/// receiving hive's own [`crate::clock::Clock`] when the envelope first
/// enters that hive's dispatch queue, and reset to zero when an envelope is
/// decoded off the wire (hive clocks are not comparable across processes).
/// Queue wait is therefore always measured against a single clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// Shared by every message in one causal chain.
    pub trace_id: u64,
    /// Unique to this message (the "message seq" of the chain).
    pub span_id: u64,
    /// Span id of the message whose handler emitted this one; 0 for roots.
    pub parent_span: u64,
    /// Local-clock ms when this envelope entered the current hive's dispatch
    /// queue; 0 = not yet stamped.
    pub enqueued_ms: u64,
}

impl TraceContext {
    /// A fresh root context for an externally injected message.
    pub fn root(hive: HiveId) -> Self {
        let id = next_id(hive);
        TraceContext {
            trace_id: id,
            span_id: id,
            parent_span: 0,
            enqueued_ms: 0,
        }
    }

    /// A child context for a message emitted while handling `self`: same
    /// trace, fresh span, parented on this span.
    pub fn child(&self, hive: HiveId) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            span_id: next_id(hive),
            parent_span: self.span_id,
            enqueued_ms: 0,
        }
    }

    /// The context as decoded off the wire: causal identity is preserved but
    /// the enqueue stamp (taken against the sender's clock) is cleared.
    pub fn rewired(&self) -> Self {
        TraceContext {
            enqueued_ms: 0,
            ..*self
        }
    }
}

/// One handler invocation, as recorded by a hive's [`TraceCollector`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This message's span id.
    pub span_id: u64,
    /// Span id of the causing message (0 for roots).
    pub parent_span: u64,
    /// Hive the handler ran on.
    pub hive: HiveId,
    /// Application.
    pub app: AppName,
    /// Bee that ran the handler.
    pub bee: BeeId,
    /// Wire name of the handled message type.
    pub msg_type: String,
    /// Local-clock ms when the handler started.
    pub start_ms: u64,
    /// Microseconds the envelope waited in local queues before the handler
    /// ran (ms resolution, measured against the hive's [`crate::clock::Clock`]).
    pub queue_wait_us: u64,
    /// Wall nanoseconds spent inside the handler.
    pub runtime_ns: u64,
    /// Whether the handler committed (false = error, transaction rolled back).
    pub ok: bool,
}

/// One handler invocation as a [`TraceCollector`] keeps it: the same
/// fields as [`TraceSpan`], with the application and the message type held
/// by shared reference, so recording one copies no string. Reading the
/// collector turns records into spans.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This message's span id.
    pub span_id: u64,
    /// Span id of the causing message (0 for roots).
    pub parent_span: u64,
    /// Hive the handler ran on.
    pub hive: HiveId,
    /// Application.
    pub app: Name,
    /// Bee that ran the handler.
    pub bee: BeeId,
    /// Wire name of the handled message type.
    pub msg_type: &'static str,
    /// Local-clock ms when the handler started.
    pub start_ms: u64,
    /// Microseconds the envelope waited in local queues.
    pub queue_wait_us: u64,
    /// Wall nanoseconds spent inside the handler.
    pub runtime_ns: u64,
    /// Whether the handler committed.
    pub ok: bool,
}

impl SpanRecord {
    /// The span this record describes.
    pub fn to_span(&self) -> TraceSpan {
        TraceSpan {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_span: self.parent_span,
            hive: self.hive,
            app: self.app.to_string(),
            bee: self.bee,
            msg_type: self.msg_type.to_string(),
            start_ms: self.start_ms,
            queue_wait_us: self.queue_wait_us,
            runtime_ns: self.runtime_ns,
            ok: self.ok,
        }
    }
}

/// Spans a hive's [`TraceCollector`] retains; older ones are evicted.
pub const TRACE_CAPACITY: usize = 4096;

/// A bounded ring of recent handler invocations.
#[derive(Debug)]
pub struct TraceCollector {
    ring: Ring<SpanRecord>,
}

impl TraceCollector {
    /// A collector retaining up to `capacity` spans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        TraceCollector {
            ring: Ring::new(capacity),
        }
    }

    /// Number of spans the ring can hold.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Total spans ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Records a span, evicting the oldest if the ring is full.
    pub fn record(&self, span: SpanRecord) {
        self.ring.push(span);
    }

    /// All retained spans, in the order they ran: the hive thread records
    /// each as its handler returns, so that is start order.
    pub fn snapshot(&self) -> Vec<TraceSpan> {
        self.spans_where(|_| true)
    }

    /// The retained spans of one trace, in the order they ran.
    pub fn spans_for(&self, trace_id: u64) -> Vec<TraceSpan> {
        self.spans_where(|s| s.trace_id == trace_id)
    }

    fn spans_where(&self, keep: impl Fn(&SpanRecord) -> bool) -> Vec<TraceSpan> {
        self.ring
            .snapshot()
            .iter()
            .filter(|s| keep(s))
            .map(SpanRecord::to_span)
            .collect()
    }
}

/// Renders the spans of one trace — from one hive or gathered from many —
/// as a `chrome://tracing` document in Chrome's JSON Object Format,
/// `{"traceEvents":[…]}`.
///
/// Each hive gets a named process lane (a `process_name` metadata event,
/// pid = hive); each handler invocation is one complete ("X") event with
/// tid = bee and timestamps in microseconds of the recording hive's clock.
/// Hive clocks are not comparable, so the cross-lane link is the causal
/// chain in each event's `args` (`span`, `parent`), not the time axis.
/// Spans are deduplicated by (hive, span id) and ordered by (start, span).
/// Load the output in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace(spans: &[TraceSpan], trace_id: u64) -> String {
    let mut spans: Vec<&TraceSpan> = spans.iter().filter(|s| s.trace_id == trace_id).collect();
    spans.sort_by_key(|s| (s.hive, s.span_id, s.start_ms));
    spans.dedup_by_key(|s| (s.hive, s.span_id));
    let mut hives: Vec<HiveId> = spans.iter().map(|s| s.hive).collect();
    hives.dedup();
    spans.sort_by_key(|s| (s.start_ms, s.span_id));

    let mut out = String::from("{\"traceEvents\":[");
    for (i, h) in hives.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
        out.push_str(&h.0.to_string());
        out.push_str(",\"args\":{\"name\":\"hive-");
        out.push_str(&h.0.to_string());
        out.push_str("\"}}");
    }
    for s in &spans {
        out.push(',');
        push_span_event(s, &mut out);
    }
    out.push_str("\n]}\n");
    out
}

/// Renders one span as a chrome-trace complete ("X") event.
fn push_span_event(s: &TraceSpan, out: &mut String) {
    out.push_str("\n  {\"name\":\"");
    escape_json(crate::analytics::short_type(&s.msg_type), out);
    out.push_str("\",\"cat\":\"");
    escape_json(&s.app, out);
    out.push_str("\",\"ph\":\"X\",\"ts\":");
    out.push_str(&(s.start_ms * 1000).to_string());
    out.push_str(",\"dur\":");
    out.push_str(&(s.runtime_ns / 1_000).max(1).to_string());
    out.push_str(",\"pid\":");
    out.push_str(&s.hive.0.to_string());
    out.push_str(",\"tid\":");
    out.push_str(&s.bee.0.to_string());
    out.push_str(",\"args\":{\"trace\":");
    out.push_str(&s.trace_id.to_string());
    out.push_str(",\"span\":");
    out.push_str(&s.span_id.to_string());
    out.push_str(",\"parent\":");
    out.push_str(&s.parent_span.to_string());
    out.push_str(",\"queue_wait_us\":");
    out.push_str(&s.queue_wait_us.to_string());
    out.push_str(",\"ok\":");
    out.push_str(if s.ok { "true" } else { "false" });
    out.push_str("}}");
}

/// Coordinates cross-hive trace assembly between a hive's step loop and
/// outside callers (the HTTP status server, tests).
///
/// A caller [`TraceHub::submit`]s a trace id and blocks in
/// [`TraceHub::wait`]; the owning hive drains the request in its next step
/// via [`TraceHub::take_requests`], broadcasts
/// [`crate::control::ControlMsg::TraceQuery`] to every peer, seeds the
/// pending query with its local spans ([`TraceHub::start`]), and feeds each
/// [`crate::control::ControlMsg::TraceReply`] back through
/// [`TraceHub::add_reply`]. The query completes when every peer answered or
/// when the hive [`TraceHub::expire`]s it — assembly is best-effort by
/// design (an unreachable hive must not wedge introspection), so a result
/// may be partial. Results are the spans as they arrived, local first;
/// [`chrome_trace`] deduplicates and orders them.
#[derive(Default)]
pub struct TraceHub {
    inner: Mutex<HubInner>,
    cv: std::sync::Condvar,
    /// The owning hive's clock. When wired ([`TraceHub::set_clock`]),
    /// [`TraceHub::wait`] measures its timeout in this clock's (possibly
    /// virtual) time instead of reading the wall clock directly, so trace
    /// assembly under the simulator expires deterministically with the rest
    /// of the hive.
    clock: Mutex<Option<std::sync::Arc<dyn Clock>>>,
}

#[derive(Default)]
struct HubInner {
    next_query: u64,
    /// Submitted trace ids the hive has not picked up yet.
    requests: Vec<(u64, u64)>,
    pending: std::collections::BTreeMap<u64, PendingQuery>,
}

struct PendingQuery {
    outstanding: usize,
    spans: Vec<TraceSpan>,
    done: bool,
}

impl TraceHub {
    /// A hub with no pending queries.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a query for `trace_id` and returns its query id. The
    /// caller should wake the owning hive (its handle's `nudge`) and then
    /// [`TraceHub::wait`].
    pub fn submit(&self, trace_id: u64) -> u64 {
        let mut inner = self.inner.lock();
        inner.next_query += 1;
        let qid = inner.next_query;
        inner.requests.push((qid, trace_id));
        qid
    }

    /// Hive-side: drains submitted `(query_id, trace_id)` pairs.
    pub fn take_requests(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.inner.lock().requests)
    }

    /// Hive-side: opens the pending query after broadcasting `TraceQuery`
    /// to `outstanding` peers, seeding it with the hive's local spans.
    /// With no peers the query completes immediately.
    pub fn start(&self, query_id: u64, outstanding: usize, local_spans: Vec<TraceSpan>) {
        let mut inner = self.inner.lock();
        inner.pending.insert(
            query_id,
            PendingQuery {
                outstanding,
                spans: local_spans,
                done: outstanding == 0,
            },
        );
        drop(inner);
        self.cv.notify_all();
    }

    /// Hive-side: merges one peer's reply. Unknown query ids (already
    /// expired or delivered) are ignored.
    pub fn add_reply(&self, query_id: u64, spans: Vec<TraceSpan>) {
        let mut inner = self.inner.lock();
        if let Some(p) = inner.pending.get_mut(&query_id) {
            p.spans.extend(spans);
            p.outstanding = p.outstanding.saturating_sub(1);
            if p.outstanding == 0 {
                p.done = true;
            }
        }
        drop(inner);
        self.cv.notify_all();
    }

    /// Hive-side: completes the query with whatever has arrived (deadline
    /// hit; some peers never answered).
    pub fn expire(&self, query_id: u64) {
        let mut inner = self.inner.lock();
        if let Some(p) = inner.pending.get_mut(&query_id) {
            p.done = true;
        }
        drop(inner);
        self.cv.notify_all();
    }

    /// Wires the owning hive's clock so [`TraceHub::wait`] timeouts run in
    /// hive time (virtual under the simulator, wall in production).
    pub fn set_clock(&self, clock: std::sync::Arc<dyn Clock>) {
        *self.clock.lock() = Some(clock);
    }

    /// Blocks until the query completes or `timeout` passes, returning the
    /// merged (possibly partial) spans. Consumes the query.
    ///
    /// With a wired clock the timeout is measured against it; the wall
    /// clock only serves as a safety net of the same duration, so a frozen
    /// simulated clock cannot wedge the calling thread forever.
    pub fn wait(&self, query_id: u64, timeout: std::time::Duration) -> Vec<TraceSpan> {
        let clock = self.clock.lock().clone();
        let virtual_deadline = clock
            .as_ref()
            .map(|c| c.now_ms().saturating_add(timeout.as_millis() as u64));
        let wall_deadline = std::time::Instant::now() + timeout;
        let mut inner = self.inner.lock();
        loop {
            let done = inner.pending.get(&query_id).is_some_and(|p| p.done);
            let virtual_expired = match (&clock, virtual_deadline) {
                (Some(c), Some(due)) => c.now_ms() >= due,
                _ => false,
            };
            let now = std::time::Instant::now();
            if done || virtual_expired || now >= wall_deadline {
                return inner
                    .pending
                    .remove(&query_id)
                    .map(|p| p.spans)
                    .unwrap_or_default();
            }
            let mut remaining = wall_deadline.saturating_duration_since(now);
            if clock.is_some() {
                // A virtual clock advances outside the condvar protocol:
                // wake in short slices to re-check the virtual deadline.
                remaining = remaining.min(std::time::Duration::from_millis(10));
            }
            inner = wait_timeout(&self.cv, inner, remaining);
        }
    }
}

impl fmt::Debug for TraceHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("TraceHub")
            .field("queued_requests", &inner.requests.len())
            .field("pending", &inner.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, span_id: u64, parent: u64, start: u64) -> TraceSpan {
        TraceSpan {
            trace_id: trace,
            span_id,
            parent_span: parent,
            hive: HiveId(1),
            app: "te".into(),
            bee: BeeId::new(HiveId(1), 1),
            msg_type: "mod::Stat\"Reply\"".into(),
            start_ms: start,
            queue_wait_us: 5,
            runtime_ns: 2_000,
            ok: true,
        }
    }

    #[test]
    fn root_and_child_are_causally_linked() {
        let root = TraceContext::root(HiveId(3));
        assert_eq!(root.trace_id, root.span_id);
        assert_eq!(root.parent_span, 0);
        let c1 = root.child(HiveId(3));
        let c2 = c1.child(HiveId(4));
        assert_eq!(c1.trace_id, root.trace_id);
        assert_eq!(c2.trace_id, root.trace_id);
        assert_eq!(c1.parent_span, root.span_id);
        assert_eq!(c2.parent_span, c1.span_id);
        assert_ne!(c1.span_id, c2.span_id);
        assert_ne!(c1.span_id, root.span_id);
    }

    #[test]
    fn rewired_clears_only_the_enqueue_stamp() {
        let mut ctx = TraceContext::root(HiveId(1));
        ctx.enqueued_ms = 77;
        let w = ctx.rewired();
        assert_eq!(w.enqueued_ms, 0);
        assert_eq!(w.trace_id, ctx.trace_id);
        assert_eq!(w.span_id, ctx.span_id);
        assert_eq!(w.parent_span, ctx.parent_span);
    }

    fn record(trace: u64, span_id: u64, parent: u64, start: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id,
            parent_span: parent,
            hive: HiveId(1),
            app: "te".into(),
            bee: BeeId::new(HiveId(1), 1),
            msg_type: "mod::Stat\"Reply\"",
            start_ms: start,
            queue_wait_us: 5,
            runtime_ns: 2_000,
            ok: true,
        }
    }

    #[test]
    fn a_record_reads_back_as_the_span_it_describes() {
        assert_eq!(record(1, 11, 10, 3).to_span(), span(1, 11, 10, 3));
    }

    #[test]
    fn spans_for_filters_by_trace_in_start_order() {
        let c = TraceCollector::new(8);
        c.record(record(1, 10, 0, 1));
        c.record(record(2, 20, 0, 2));
        c.record(record(1, 11, 10, 3));
        let spans = c.spans_for(1);
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.trace_id == 1));
        assert_eq!(spans[1].parent_span, spans[0].span_id);
        let starts: Vec<u64> = c.snapshot().iter().map(|s| s.start_ms).collect();
        assert_eq!(starts, vec![1, 2, 3]);
    }

    fn span_on(hive: u32, trace: u64, span_id: u64, parent: u64, start: u64) -> TraceSpan {
        TraceSpan {
            hive: HiveId(hive),
            bee: BeeId::new(HiveId(hive), 1),
            ..span(trace, span_id, parent, start)
        }
    }

    #[test]
    fn chrome_trace_is_one_object_with_a_lane_per_hive() {
        let spans = vec![
            span_on(2, 7, 11, 10, 6),
            span_on(1, 7, 10, 0, 5),
            span_on(2, 7, 11, 10, 6), // duplicate reply
            span_on(2, 9, 99, 0, 7),  // other trace
        ];
        let json = chrome_trace(&spans, 7);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.trim_end().ends_with("]}"), "{json}");
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 2, "{json}");
        assert!(json.contains("\"name\":\"hive-1\""));
        assert!(json.contains("\"name\":\"hive-2\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2, "{json}");
        assert!(json.contains("\"span\":11,\"parent\":10"));
        assert!(!json.contains("\"span\":99"));
        // Events in start order; the quoted type name is escaped.
        assert!(json.find("\"span\":10").unwrap() < json.find("\"span\":11").unwrap());
        assert!(json.contains("Stat\\\"Reply\\\""));
        assert_eq!(
            chrome_trace(&[], 7),
            "{\"traceEvents\":[\n]}\n",
            "an unknown trace is an empty document"
        );
    }

    #[test]
    fn hub_completes_immediately_with_no_peers() {
        let hub = TraceHub::new();
        let qid = hub.submit(7);
        assert_eq!(hub.take_requests(), vec![(qid, 7)]);
        assert!(hub.take_requests().is_empty(), "drained once");
        hub.start(qid, 0, vec![span(7, 1, 0, 1)]);
        assert!(hub.inner.lock().pending[&qid].done, "no peers => done");
        let spans = hub.wait(qid, std::time::Duration::ZERO);
        assert_eq!(spans.len(), 1);
        assert!(!hub.inner.lock().pending.contains_key(&qid), "consumed");
    }

    #[test]
    fn hub_merges_replies_and_completes_on_last_peer() {
        let hub = TraceHub::new();
        let qid = hub.submit(7);
        hub.take_requests();
        let done = |hub: &TraceHub| hub.inner.lock().pending[&qid].done;
        hub.start(qid, 2, vec![span_on(1, 7, 10, 0, 5)]);
        assert!(!done(&hub), "2 peers outstanding");
        hub.add_reply(qid, vec![span_on(2, 7, 11, 10, 6)]);
        assert!(!done(&hub), "1 peer outstanding");
        hub.add_reply(qid, vec![]);
        assert!(done(&hub));
        let spans = hub.wait(qid, std::time::Duration::from_millis(1));
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].span_id, 10);
        assert_eq!(spans[1].parent_span, 10);
    }

    #[test]
    fn hub_expire_yields_partial_result() {
        let hub = TraceHub::new();
        let qid = hub.submit(7);
        hub.take_requests();
        hub.start(qid, 3, vec![span_on(1, 7, 10, 0, 5)]);
        hub.add_reply(qid, vec![span_on(2, 7, 11, 10, 6)]);
        hub.expire(qid);
        assert!(hub.inner.lock().pending[&qid].done, "expired => done");
        let spans = hub.wait(qid, std::time::Duration::ZERO);
        assert_eq!(spans.len(), 2);
    }

    #[test]
    fn hub_wait_times_out_to_empty_on_unknown_query() {
        let hub = TraceHub::new();
        let spans = hub.wait(12345, std::time::Duration::from_millis(5));
        assert!(spans.is_empty());
    }

    #[test]
    fn hub_wait_expires_in_virtual_time() {
        use crate::clock::SimClock;
        use std::sync::Arc;
        let hub = Arc::new(TraceHub::new());
        let clock = SimClock::new();
        hub.set_clock(Arc::new(clock.clone()));
        let qid = hub.submit(7);
        hub.take_requests();
        hub.start(qid, 1, vec![span_on(1, 7, 10, 0, 5)]);
        // Advance virtual time past the deadline from another thread; the
        // waiter's re-check slices must notice without any notify.
        let t = {
            let clock = clock.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                clock.advance(10_000);
            })
        };
        // Wall safety net is 2s, but virtual expiry should fire in ~30ms.
        let start = std::time::Instant::now();
        let spans = hub.wait(qid, std::time::Duration::from_secs(2));
        t.join().unwrap();
        assert_eq!(spans.len(), 1, "partial result on expiry");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "virtual expiry did not cut the wall wait short"
        );
    }

    #[test]
    fn hub_wait_with_frozen_virtual_clock_hits_the_wall_safety_net() {
        use crate::clock::SimClock;
        use std::sync::Arc;
        let hub = TraceHub::new();
        hub.set_clock(Arc::new(SimClock::new()));
        let qid = hub.submit(7);
        hub.take_requests();
        hub.start(qid, 1, vec![]);
        // Nobody advances the virtual clock: the wall-clock net of the same
        // duration still returns the (empty) partial result.
        let spans = hub.wait(qid, std::time::Duration::from_millis(30));
        assert!(spans.is_empty());
    }
}
