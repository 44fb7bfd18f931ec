//! End-to-end observability over a two-hive cluster: a three-stage message
//! chain whose middle hops live on the other hive, proving that (a) the
//! causal [`beehive::core::TraceContext`] survives local emits *and* the
//! wire, (b) the chrome-trace export of the merged spans is valid JSON, and
//! (c) per-(app, message type) latency histograms flow through the collector
//! into [`beehive::core::Analytics`] and its Prometheus exposition with
//! counts matching the handlers that actually ran.

use std::collections::BTreeSet;
use std::sync::Arc;

use beehive::core::{chrome_trace, collector_app, Analytics, HiveMetrics, TraceSpan};
use beehive::prelude::*;
use beehive::sim::{ClusterConfig, SimCluster};
use beehive_core::sync::Mutex;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Hop {
    stage: u8,
    key: String,
}
beehive::core::impl_message!(Hop);

/// A TE-style pipeline: stage 0 → 1 → 2, each stage a distinct cell so each
/// gets its own bee (and can live on its own hive).
fn chain_app() -> App {
    App::builder("chain")
        .handle::<Hop>(
            |m| {
                let dict = match m.stage {
                    0 => "s0",
                    1 => "s1",
                    _ => "s2",
                };
                Mapped::cell(dict, &m.key)
            },
            |m, ctx| {
                if m.stage < 2 {
                    ctx.emit(Hop {
                        stage: m.stage + 1,
                        key: m.key.clone(),
                    });
                }
                Ok(())
            },
        )
        .build()
}

/// Minimal JSON syntax checker (no serde_json in-tree): parses one value and
/// requires the input to be fully consumed.
fn check_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    parse_value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing bytes at {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Result<(), String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, i);
                parse_string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at {i}"));
                }
                *i += 1;
                parse_value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(());
            }
            loop {
                parse_value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at {i}")),
                }
            }
        }
        Some(b'"') => parse_string(b, i),
        Some(b't') => parse_lit(b, i, "true"),
        Some(b'f') => parse_lit(b, i, "false"),
        Some(b'n') => parse_lit(b, i, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            *i += 1;
            while b.get(*i).is_some_and(|c| {
                c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
            }) {
                *i += 1;
            }
            Ok(())
        }
        _ => Err(format!("unexpected byte at {i}")),
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<(), String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at {i}"));
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => *i += 2,
            _ => *i += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_lit(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at {i}"))
    }
}

#[test]
fn traces_cross_hives_and_latency_reaches_prometheus() {
    let reports: Arc<Mutex<Vec<HiveMetrics>>> = Arc::new(Mutex::new(Vec::new()));
    let r2 = reports.clone();
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 2,
            voters: 2,
            ..Default::default()
        },
        move |h| {
            h.install(chain_app());
            let instr = h.instrumentation();
            h.install(collector_app(instr));
            let r3 = r2.clone();
            h.install(
                App::builder("capture")
                    .handle::<HiveMetrics>(
                        |_m| Mapped::LocalSingleton,
                        move |m, _c| {
                            r3.lock().push(m.clone());
                            Ok(())
                        },
                    )
                    .build(),
            );
        },
    );
    c.elect_registry(120_000).unwrap();

    // Warm-up: run stages 1→2 from hive 2 so their cells are claimed there;
    // the traced run below must then cross the wire to reach them.
    c.hive_mut(HiveId(2)).emit(Hop {
        stage: 1,
        key: "k".into(),
    });
    c.advance(2_000, 50);

    // The traced run starts at stage 0 on hive 1.
    c.hive_mut(HiveId(1)).emit(Hop {
        stage: 0,
        key: "k".into(),
    });
    c.advance(5_000, 50);

    let h1 = c.hive(HiveId(1)).tracer().snapshot();
    let h2 = c.hive(HiveId(2)).tracer().snapshot();

    // (a) one trace id spans both hives, with intact parent links.
    let root = h1
        .iter()
        .find(|s| s.app == "chain" && s.parent_span == 0)
        .expect("root chain span recorded on hive 1")
        .clone();
    let mut spans: Vec<TraceSpan> = h1
        .iter()
        .chain(h2.iter())
        .filter(|s| s.trace_id == root.trace_id)
        .cloned()
        .collect();
    spans.sort_by_key(|s| s.span_id);
    assert!(spans.len() >= 3, "three chain stages traced: {spans:?}");
    let hives: BTreeSet<u32> = spans.iter().map(|s| s.hive.0).collect();
    assert_eq!(hives.len(), 2, "the trace crosses both hives: {spans:?}");
    for s in &spans {
        assert!(
            s.parent_span == 0 || spans.iter().any(|p| p.span_id == s.parent_span),
            "span {s:?} has a dangling parent"
        );
    }

    // (b) the chrome-trace export of the merged spans is one valid JSON
    // document with a process lane (metadata event) per hive, all three
    // chain stages, and the causal links intact.
    let json = chrome_trace(&spans, root.trace_id);
    check_json(&json).expect("chrome trace is valid JSON");
    assert!(json.contains("\"traceEvents\""), "trace: {json}");
    assert_eq!(
        json.matches("\"ph\":\"M\"").count(),
        2,
        "one process_name lane per hive: {json}"
    );
    assert!(json.contains("\"name\":\"hive-1\""), "trace: {json}");
    assert!(json.contains("\"name\":\"hive-2\""), "trace: {json}");
    assert!(
        json.matches("\"ph\":\"X\"").count() >= 3,
        "all three chain stages present: {json}"
    );
    assert!(
        json.contains(&format!("\"parent\":{}", root.span_id)),
        "root's child links back to it: {json}"
    );
    let linked = spans
        .iter()
        .filter(|s| s.parent_span != 0 && spans.iter().any(|p| p.span_id == s.parent_span))
        .count();
    assert!(
        linked >= 2,
        "root plus >=2 causally linked children (got {linked}): {spans:?}"
    );

    // (c) latency histograms reach the Prometheus exposition with counts
    // matching the chain handlers that actually ran (warm-up + traced run).
    let mut analytics = Analytics::new();
    for w in reports.lock().iter() {
        analytics.ingest(w);
    }
    let chain_runs = h1
        .iter()
        .chain(h2.iter())
        .filter(|s| s.app == "chain")
        .count();
    assert!(
        chain_runs >= 5,
        "warm-up (2) + traced run (3): {chain_runs}"
    );
    let text = analytics.render_prometheus();
    let runtime_count =
        format!("beehive_handler_runtime_seconds_count{{app=\"chain\",msg=\"Hop\"}} {chain_runs}");
    assert!(
        text.contains(&runtime_count),
        "missing {runtime_count:?} in:\n{text}"
    );
    let wait_count =
        format!("beehive_queue_wait_seconds_count{{app=\"chain\",msg=\"Hop\"}} {chain_runs}");
    assert!(
        text.contains(&wait_count),
        "missing {wait_count:?} in:\n{text}"
    );
    assert!(
        analytics.p99_runtime_us("chain").is_some(),
        "p99 available to feedback/optimizer"
    );
}
