//! The span file of a traced run, in Chrome's trace-event format (open it
//! in `chrome://tracing` or Perfetto). Spans are kept in memory during the
//! run and written once, after it.
//!
//! Per event, on the row of its switch: `event` (due → completion) and,
//! nested inside it, `gen.wait` (due → `emit` called: the generator's own
//! lateness), `core.hive.emit` (the call) and `controller` (emit returned →
//! reply at the bench's `SwitchIo`). Per paired frame, on the row of its
//! direction: `net.hop` (send called → `try_recv` returned it).

use std::io::{BufWriter, Write};
use std::path::Path;

use crate::traced::Hop;

#[derive(Clone, Copy, Debug)]
pub struct EventSpan {
    pub switch: u8,
    pub due_ns: u64,
    pub emit_start_ns: u64,
    pub emit_end_ns: u64,
    pub done_ns: u64,
}

/// At most this many events and this many hops are written, evenly
/// thinned: the file is for reading, the histograms carry the totals.
pub const MAX_WRITTEN: usize = 20_000;

fn thin<T>(items: Vec<T>) -> impl Iterator<Item = T> {
    let step = items.len().div_ceil(MAX_WRITTEN).max(1);
    items.into_iter().step_by(step)
}

pub fn write<'a>(
    path: &Path,
    events: impl Iterator<Item = &'a EventSpan>,
    hops: &[Hop],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    writeln!(
        w,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"events by switch\"}}}},"
    )?;
    write!(
        w,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{{\"name\":\"inter-hive frames\"}}}}"
    )?;
    let mut span = |name: &str, pid: u32, tid: u32, from: u64, to: u64| {
        write!(
            w,
            ",\n{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3}}}",
            from as f64 / 1e3,
            to.saturating_sub(from) as f64 / 1e3
        )
    };
    for e in thin(events.collect()) {
        let row = u32::from(e.switch);
        span("event", 1, row, e.due_ns, e.done_ns)?;
        span("gen.wait", 1, row, e.due_ns, e.emit_start_ns)?;
        span("core.hive.emit", 1, row, e.emit_start_ns, e.emit_end_ns)?;
        span("controller", 1, row, e.emit_end_ns, e.done_ns)?;
    }
    for h in thin(hops.iter().collect()) {
        span("net.hop", 2, h.from * 10 + h.to, h.sent_ns, h.recv_ns)?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}
