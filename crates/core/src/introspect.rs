//! Live cluster introspection: a dependency-free HTTP/1.0 status server.
//!
//! Endpoints:
//!
//! * `GET /metrics` — Prometheus text exposition ([`render_metrics`]).
//! * `GET /healthz` — `200 ok` / `503 degraded` JSON verdict, degraded when
//!   bees are quarantined, dead letters are retained, or the channel outbox
//!   backs up past [`HEALTH_OUTBOX_LIMIT`]. A hive mid-membership-change
//!   reports its lifecycle stage (`joining`/`draining`/`departed`) with a
//!   200 instead — a deliberate transition is not degradation.
//! * `GET /events?n=K` — the last `K` flight-recorder events (default 100)
//!   as a JSON array ([`crate::events::EventJournal`]).
//! * `GET /trace/<id>` — one merged chrome://tracing JSON document for a
//!   trace id, assembled from every reachable hive via
//!   [`crate::trace::TraceHub`]; decimal or `0x`-prefixed hex ids.
//! * `GET /dlq` — the retained dead letters as a JSON array.
//!
//! The server is deliberately minimal: blocking std networking, one short-
//! lived thread per connection, `Connection: close` on every response. It
//! observes shared state and never schedules hive work (the one exception:
//! a trace query nudges the hive awake so its step loop can fan the query
//! out — submission is lock-free and the hive consumes it on its own
//! schedule).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::analytics::{push_header, push_sample, Analytics};
use crate::events::EventJournal;
use crate::lifecycle::{Lifecycle, LifecycleStage};
use crate::metrics::PlatformCounters;
use crate::supervision::DeadLetterStore;
use crate::trace::{chrome_trace, TraceCollector, TraceHub};
use crate::transport::{FrameKind, TransportCounters, TransportSnapshot};

/// `/healthz` reports degraded when the summed channel outbox depth exceeds
/// this (unacked envelopes buffered for resend — a stuck peer).
pub const HEALTH_OUTBOX_LIMIT: u64 = 10_000;

/// How long `/trace/<id>` waits for remote hives before answering with
/// whatever arrived. Slightly above the hive-side query expiry so the hive
/// normally completes the query first.
const TRACE_WAIT: Duration = Duration::from_millis(2_500);

/// Default `/events` count when no `?n=` is given.
const DEFAULT_EVENT_COUNT: usize = 100;

/// Per-connection socket timeout: a stalled client cannot pin a thread.
const CONN_TIMEOUT: Duration = Duration::from_secs(5);

/// Everything the status server observes. All fields are shared handles
/// onto live hive state; the server holds no state of its own.
#[derive(Clone)]
pub struct StatusContext {
    /// The merged analytics store (fed by the exporter app).
    pub analytics: Arc<std::sync::Mutex<Analytics>>,
    /// TCP transport counters, when running over the network.
    pub transport: Option<Arc<TransportCounters>>,
    /// The hive's dead-letter queue.
    pub dead_letters: Arc<DeadLetterStore>,
    /// The hive's flight-recorder event journal.
    pub events: Arc<EventJournal>,
    /// The hive's local span ring (fallback when no cluster query runs).
    pub tracer: Arc<TraceCollector>,
    /// The cross-hive trace assembly hub.
    pub trace_hub: Arc<TraceHub>,
    /// Wakes the hive's run loop so it notices a submitted trace query.
    /// `None` degrades `/trace/<id>` to local spans only.
    pub nudge: Option<Arc<dyn Fn() + Send + Sync>>,
    /// The hive's membership lifecycle cell. `None` reports `active`.
    /// A non-`active` stage takes precedence over the degraded verdict on
    /// `/healthz`: a draining hive dead-letters abandoned envelopes by
    /// design and must still answer 200 so orchestration can watch it.
    pub lifecycle: Option<Arc<Lifecycle>>,
}

/// Renders the full Prometheus exposition behind `GET /metrics`: analytics
/// families plus (when present) the transport families.
pub fn render_metrics(analytics: &Analytics, transport: Option<&TransportSnapshot>) -> String {
    let mut text = analytics.render_prometheus();
    if let Some(snap) = transport {
        text.push_str(&render_transport(snap));
    }
    text
}

/// Renders the TCP transport counters as Prometheus text.
pub fn render_transport(snap: &TransportSnapshot) -> String {
    let mut out = String::new();
    type PerKind = fn((u64, u64)) -> u64;
    let traffic: [(&str, &str, PerKind); 2] = [
        (
            "beehive_transport_frames_total",
            "Frames exchanged by the TCP transport.",
            |(frames, _)| frames,
        ),
        (
            "beehive_transport_bytes_total",
            "Wire bytes exchanged by the TCP transport.",
            |(_, bytes)| bytes,
        ),
    ];
    for (name, help, pick) in traffic {
        push_header(&mut out, name, help, "counter");
        for kind in FrameKind::ALL {
            for (direction, counts) in [("out", snap.sent(kind)), ("in", snap.received(kind))] {
                push_sample(
                    &mut out,
                    name,
                    &[("kind", kind.label()), ("direction", direction)],
                    pick(counts) as f64,
                );
            }
        }
    }
    let totals = [
        (
            "beehive_transport_connect_failures_total",
            "Failed connect attempts to peers.",
            snap.connect_failures,
        ),
        (
            "beehive_transport_deferred_total",
            "Frames queued for retransmission on reconnect instead of sent (dead or backed-off peer).",
            snap.deferred,
        ),
        (
            "beehive_transport_deferred_evicted_total",
            "Frames evicted from a full deferred queue (dropped; App/Raft recover via retransmission, Control does not).",
            snap.deferred_evicted,
        ),
    ];
    for (name, help, value) in totals {
        push_header(&mut out, name, help, "counter");
        push_sample(&mut out, name, &[], value as f64);
    }
    push_header(
        &mut out,
        "beehive_transport_peer_backoff_ms",
        "Current dead-peer backoff window per peer.",
        "gauge",
    );
    for (peer, ms) in &snap.peer_backoff_ms {
        push_sample(
            &mut out,
            "beehive_transport_peer_backoff_ms",
            &[("peer", &peer.to_string())],
            *ms as f64,
        );
    }
    out
}

/// The status server: accepts HTTP/1.0 connections on its own thread until
/// dropped.
pub struct StatusServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl StatusServer {
    /// Binds `addr` (port 0 allocates) and starts serving `ctx`.
    pub fn bind(addr: SocketAddr, ctx: StatusContext) -> std::io::Result<StatusServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = shutdown.clone();
        std::thread::Builder::new()
            .name("bh-status".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let ctx = ctx.clone();
                    std::thread::Builder::new()
                        .name("bh-status-conn".into())
                        .spawn(move || {
                            let _ = serve_connection(stream, &ctx);
                        })
                        .ok();
                }
            })?;
        Ok(StatusServer {
            local_addr,
            shutdown,
        })
    }

    /// The address the server actually listens on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Wake the accept loop with a dummy connection so it can exit.
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// Reads one request, routes it, writes one response, closes.
fn serve_connection(mut stream: TcpStream, ctx: &StatusContext) -> std::io::Result<()> {
    stream.set_read_timeout(Some(CONN_TIMEOUT)).ok();
    stream.set_write_timeout(Some(CONN_TIMEOUT)).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers; HTTP/1.0 GETs carry no body we care about.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    match path {
        "/" => respond(
            &mut stream,
            "200 OK",
            "text/plain",
            "beehive status endpoints: /metrics /healthz /events?n=K /trace/<id> /dlq\n",
        ),
        "/metrics" => {
            let snap = ctx.transport.as_ref().map(|c| c.snapshot());
            let text = {
                let analytics = ctx.analytics.lock().unwrap();
                render_metrics(&analytics, snap.as_ref())
            };
            respond(&mut stream, "200 OK", "text/plain; version=0.0.4", &text)
        }
        "/healthz" => {
            let PlatformCounters {
                quarantined,
                outbox_depth,
                snapshot_lag,
                ..
            } = ctx.analytics.lock().unwrap().platform();
            let dead_letters = ctx.dead_letters.len() as u64;
            let stage = ctx
                .lifecycle
                .as_ref()
                .map_or(LifecycleStage::Active, |l| l.stage());
            let healthy =
                quarantined == 0 && dead_letters == 0 && outbox_depth <= HEALTH_OUTBOX_LIMIT;
            // A deliberate lifecycle transition is not degradation: report
            // the stage itself (joining/draining/departed) with a 200.
            let verdict = if stage != LifecycleStage::Active {
                stage.label()
            } else if healthy {
                "ok"
            } else {
                "degraded"
            };
            let body = format!(
                "{{\"status\":\"{verdict}\",\"lifecycle\":\"{}\",\
                 \"quarantined_bees\":{quarantined},\
                 \"dead_letters\":{dead_letters},\"outbox_depth\":{outbox_depth},\
                 \"snapshot_lag\":{snapshot_lag},\
                 \"events_recorded\":{}}}\n",
                stage.label(),
                ctx.events.recorded(),
            );
            let status = if healthy || stage != LifecycleStage::Active {
                "200 OK"
            } else {
                "503 Service Unavailable"
            };
            respond(&mut stream, status, "application/json", &body)
        }
        "/events" => {
            let n = query
                .and_then(|q| {
                    q.split('&')
                        .find_map(|kv| kv.strip_prefix("n="))
                        .and_then(|v| v.parse::<usize>().ok())
                })
                .unwrap_or(DEFAULT_EVENT_COUNT);
            let body = EventJournal::to_json_array(&ctx.events.recent(n));
            respond(&mut stream, "200 OK", "application/json", &body)
        }
        "/dlq" => {
            let body = render_dlq(&ctx.dead_letters);
            respond(&mut stream, "200 OK", "application/json", &body)
        }
        _ => {
            if let Some(id) = path.strip_prefix("/trace/").and_then(parse_trace_id) {
                let spans = collect_trace(ctx, id);
                let body = chrome_trace(&spans, id);
                respond(&mut stream, "200 OK", "application/json", &body)
            } else {
                respond(&mut stream, "404 Not Found", "text/plain", "not found\n")
            }
        }
    }
}

/// Pulls a trace's spans from the whole cluster when the hive loop is
/// reachable, falling back to the local span ring.
fn collect_trace(ctx: &StatusContext, trace_id: u64) -> Vec<crate::trace::TraceSpan> {
    if let Some(nudge) = &ctx.nudge {
        let query_id = ctx.trace_hub.submit(trace_id);
        nudge();
        let spans = ctx.trace_hub.wait(query_id, TRACE_WAIT);
        if !spans.is_empty() {
            return spans;
        }
    }
    ctx.tracer.spans_for(trace_id)
}

/// Accepts decimal or `0x`-prefixed hex trace ids (the DLQ dump and logs
/// print them in hex).
fn parse_trace_id(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// JSON-escapes into a fresh string (wrapper over the journal's escaper).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    crate::events::escape_json(s, &mut out);
    out
}

/// The retained dead letters as a JSON array.
fn render_dlq(dlq: &DeadLetterStore) -> String {
    use std::fmt::Write;
    let letters = dlq.snapshot();
    let mut out = String::from("[");
    for (i, l) in letters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"recorded_ms\":{},\"app\":\"{}\",\"bee\":{},\"handler\":\"{}\",\
             \"msg_type\":\"{}\",\"kind\":\"{}\",\"attempts\":{},\"trace_id\":{},\
             \"detail\":\"{}\"}}",
            l.recorded_ms,
            esc(&l.app),
            l.bee.0,
            esc(&l.handler),
            esc(&l.msg_type),
            l.kind.label(),
            l.attempts,
            l.trace_id,
            esc(&l.detail),
        )
        .unwrap();
    }
    out.push_str("]\n");
    out
}

/// Writes one HTTP/1.0 response with an explicit length and closes.
fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::id::HiveId;

    #[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
    struct Dummy;
    crate::impl_message!(Dummy);

    fn test_ctx() -> StatusContext {
        let clock = Arc::new(SimClock::new());
        StatusContext {
            analytics: Arc::new(std::sync::Mutex::new(Analytics::new())),
            transport: Some(Arc::new(TransportCounters::new())),
            dead_letters: Arc::new(DeadLetterStore::new(16)),
            events: Arc::new(EventJournal::new(HiveId(1), 16, clock)),
            tracer: Arc::new(TraceCollector::new(16)),
            trace_hub: Arc::new(TraceHub::new()),
            nudge: None,
            lifecycle: None,
        }
    }

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut buf = String::new();
        use std::io::Read;
        stream.read_to_string(&mut buf).unwrap();
        let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn render_metrics_appends_transport_families_once() {
        let analytics = Analytics::new();
        let counters = TransportCounters::new();
        counters.record_out(FrameKind::App, 64);
        let text = render_metrics(&analytics, Some(&counters.snapshot()));
        assert!(text.contains("beehive_build_info{"), "{text}");
        assert!(text.contains("beehive_uptime_seconds"), "{text}");
        assert_eq!(
            text.matches("# TYPE beehive_transport_frames_total ")
                .count(),
            1
        );
        assert!(
            text.contains("beehive_transport_frames_total{kind=\"app\",direction=\"out\"} 1"),
            "{text}"
        );
        // Without a transport, the families are simply absent.
        let local = render_metrics(&analytics, None);
        assert!(!local.contains("beehive_transport_frames_total"));
    }

    #[test]
    fn status_server_serves_metrics_healthz_events_and_404() {
        let ctx = test_ctx();
        ctx.events
            .record(crate::events::EventKind::BeeSpawned, "test event");
        let server = StatusServer::bind("127.0.0.1:0".parse().unwrap(), ctx).unwrap();
        let addr = server.local_addr();

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(head.contains("Content-Length:"), "{head}");
        assert!(body.contains("beehive_build_info{"), "{body}");

        let (head, body) = http_get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"snapshot_lag\":0"), "{body}");
        assert!(body.contains("\"events_recorded\":1"), "{body}");

        let (head, body) = http_get(addr, "/events?n=10");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(body.contains("\"kind\":\"bee_spawned\""), "{body}");
        assert!(body.contains("\"detail\":\"test event\""), "{body}");

        let (head, body) = http_get(addr, "/dlq");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert_eq!(body.trim(), "[]");

        let (head, _) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");
    }

    #[test]
    fn trace_endpoint_falls_back_to_local_spans_without_a_hive() {
        let ctx = test_ctx();
        ctx.tracer.record(crate::trace::SpanRecord {
            trace_id: 42,
            span_id: 1,
            parent_span: 0,
            hive: HiveId(1),
            app: "te".into(),
            bee: crate::id::BeeId::new(HiveId(1), 1),
            msg_type: "M",
            start_ms: 5,
            queue_wait_us: 1,
            runtime_ns: 1_000,
            ok: true,
        });
        let server = StatusServer::bind("127.0.0.1:0".parse().unwrap(), ctx).unwrap();
        let (head, body) = http_get(server.local_addr(), "/trace/42");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(body.starts_with("{\"traceEvents\":["), "{body}");
        assert!(body.contains("\"ph\":\"X\""), "{body}");
        assert!(body.contains("\"pid\":1"), "{body}");
        // Hex form resolves to the same trace.
        let (_, hex_body) = http_get(server.local_addr(), "/trace/0x2a");
        assert_eq!(body, hex_body);
    }

    #[test]
    fn healthz_reports_lifecycle_and_draining_stays_200() {
        let lifecycle = Arc::new(Lifecycle::default());
        let ctx = StatusContext {
            lifecycle: Some(lifecycle.clone()),
            ..test_ctx()
        };
        // Even with retained dead letters (abandoned envelopes are
        // dead-lettered during a drain by design), a draining hive answers
        // 200 and reports the stage.
        ctx.dead_letters.record(crate::supervision::DeadLetter {
            app: "te".into(),
            bee: crate::id::BeeId::new(HiveId(1), 1),
            handler: "h".into(),
            msg_type: "M".into(),
            kind: crate::supervision::FailureKind::Panic,
            detail: "drain casualty".into(),
            attempts: 1,
            trace_id: 7,
            recorded_ms: 1,
            envelope: crate::message::Envelope {
                msg: Arc::new(Dummy),
                src: crate::message::Source::External(HiveId(1)),
                dst: crate::message::Dst::Broadcast,
                trace: crate::trace::TraceContext::root(HiveId(1)),
                deliveries: 0,
            },
        });
        let server = StatusServer::bind("127.0.0.1:0".parse().unwrap(), ctx).unwrap();
        let (head, body) = http_get(server.local_addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.0 503"), "{head}");
        assert!(body.contains("\"lifecycle\":\"active\""), "{body}");
        lifecycle.set(LifecycleStage::Draining);
        let (head, body) = http_get(server.local_addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(body.contains("\"status\":\"draining\""), "{body}");
        assert!(body.contains("\"lifecycle\":\"draining\""), "{body}");
    }

    #[test]
    fn healthz_degrades_on_dead_letters() {
        let ctx = test_ctx();
        let dlq = Arc::new(DeadLetterStore::new(4));
        let ctx = StatusContext {
            dead_letters: dlq.clone(),
            ..ctx
        };
        dlq.record(crate::supervision::DeadLetter {
            app: "te".into(),
            bee: crate::id::BeeId::new(HiveId(1), 1),
            handler: "h".into(),
            msg_type: "M".into(),
            kind: crate::supervision::FailureKind::Panic,
            detail: "boom \"quoted\"\nline2".into(),
            attempts: 3,
            trace_id: 7,
            recorded_ms: 1,
            envelope: crate::message::Envelope {
                msg: Arc::new(Dummy),
                src: crate::message::Source::External(HiveId(1)),
                dst: crate::message::Dst::Broadcast,
                trace: crate::trace::TraceContext::root(HiveId(1)),
                deliveries: 0,
            },
        });
        let server = StatusServer::bind("127.0.0.1:0".parse().unwrap(), ctx).unwrap();
        let (head, body) = http_get(server.local_addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.0 503"), "{head}");
        assert!(body.contains("\"status\":\"degraded\""), "{body}");
        // The DLQ endpoint escapes the panic payload into valid JSON.
        let (_, dlq_body) = http_get(server.local_addr(), "/dlq");
        assert!(dlq_body.contains("\\\"quoted\\\""), "{dlq_body}");
        assert!(dlq_body.contains("\\u000a"), "{dlq_body}");
        assert!(dlq_body.contains("\"kind\":\"panic\""), "{dlq_body}");
    }
}
