//! Application analytics over merged instrumentation data (paper §3: "This
//! merged instrumentation data is further used to find the optimal placement
//! of bees and is also utilized for application analytics.").
//!
//! Folds [`HiveMetrics`] windows into the store the status server renders
//! as `GET /metrics`: per-app load distribution, message provenance ("packet
//! out messages are emitted … upon receiving 80% of packet in's"), hive load
//! balance and the platform scalars.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::metrics::{
    HiveMetrics, LatencyHistogram, MsgLatency, PlatformCounters, ProvenanceKey, LATENCY_BUCKETS_US,
};

/// Short type name (drop module path) for display.
pub(crate) fn short_type(ty: &str) -> &str {
    ty.rsplit("::").next().unwrap_or(ty)
}

/// Aggregated analytics across any number of metrics windows.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Analytics {
    /// Per-app totals: (messages, bytes, handler nanos, errors).
    per_app: BTreeMap<String, AppLoad>,
    /// Provenance counters.
    provenance: BTreeMap<ProvenanceKey, u64>,
    /// Messages processed per hive.
    msgs_per_hive: BTreeMap<u32, u64>,
    /// Every (app, bee) observed: [`AppLoad::bees`] counts each once.
    bees_seen: BTreeSet<(String, u64)>,
    /// Queue-wait / runtime histograms per (app, message type).
    latency: BTreeMap<(String, String), MsgLatency>,
    /// The platform scalars per hive: counters summed over its reports,
    /// gauges as of its latest one.
    platform_per_hive: BTreeMap<u32, PlatformCounters>,
    /// When this analytics instance was created (drives the uptime gauge).
    /// Not serialized: a deserialized instance reports zero uptime.
    #[serde(skip)]
    started: Option<std::time::Instant>,
}

/// One application's aggregate load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AppLoad {
    /// Messages processed.
    pub msgs: u64,
    /// Wire bytes received.
    pub bytes: u64,
    /// Nanoseconds spent in handlers.
    pub handler_nanos: u64,
    /// Handler errors (rolled-back transactions).
    pub errors: u64,
    /// Number of distinct bees observed.
    pub bees: u64,
}

impl Analytics {
    /// Empty analytics.
    pub fn new() -> Self {
        Analytics {
            started: Some(std::time::Instant::now()),
            ..Self::default()
        }
    }

    /// Seconds since [`Analytics::new`] was called (0.0 for deserialized or
    /// `Default`-constructed instances).
    pub fn uptime_seconds(&self) -> f64 {
        self.started.map_or(0.0, |s| s.elapsed().as_secs_f64())
    }

    /// Folds one metrics report in.
    pub fn ingest(&mut self, report: &HiveMetrics) {
        for snap in &report.bees {
            let load = self.per_app.entry(snap.app.clone()).or_default();
            load.msgs += snap.stats.msgs_in;
            load.bytes += snap.stats.bytes_in;
            load.handler_nanos += snap.stats.handler_nanos;
            load.errors += snap.stats.errors;
            *self.msgs_per_hive.entry(snap.hive.0).or_insert(0) += snap.stats.msgs_in;
            if self.bees_seen.insert((snap.app.clone(), snap.bee.0)) {
                load.bees += 1;
            }
        }
        for (key, count) in &report.provenance {
            *self.provenance.entry(key.clone()).or_insert(0) += count;
        }
        for (app, ty, lat) in &report.latency {
            self.latency
                .entry((app.clone(), ty.clone()))
                .or_default()
                .merge(lat);
        }
        self.platform_per_hive
            .entry(report.hive.0)
            .or_default()
            .absorb(&report.platform);
    }

    /// Per-app loads.
    pub fn apps(&self) -> impl Iterator<Item = (&String, &AppLoad)> {
        self.per_app.iter()
    }

    /// The load of one app.
    pub fn app(&self, name: &str) -> Option<AppLoad> {
        self.per_app.get(name).copied()
    }

    /// Latency histograms per (app, message type).
    pub fn latency(&self) -> impl Iterator<Item = (&(String, String), &MsgLatency)> {
        self.latency.iter()
    }

    /// The worst p99 handler runtime across an app's message types, in µs.
    pub fn p99_runtime_us(&self, app: &str) -> Option<u64> {
        self.latency
            .iter()
            .filter(|((a, _), _)| a == app)
            .filter_map(|(_, l)| l.runtime.p99_us())
            .max()
    }

    /// The worst p99 queue wait across an app's message types, in µs.
    pub fn p99_queue_wait_us(&self, app: &str) -> Option<u64> {
        self.latency
            .iter()
            .filter(|((a, _), _)| a == app)
            .filter_map(|(_, l)| l.queue_wait.p99_us())
            .max()
    }

    /// The platform scalars cluster-wide: each row folded over the hives as
    /// its [`PlatformKind`](crate::metrics::PlatformKind) declares.
    pub fn platform(&self) -> PlatformCounters {
        PlatformCounters::fold(self.platform_per_hive.values())
    }

    /// Renders everything as Prometheus text exposition format. Each metric
    /// family header appears exactly once; histograms use cumulative `le`
    /// buckets in seconds per Prometheus convention. Message-type labels use
    /// short type names (module paths stripped).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);

        push_header(
            &mut out,
            "beehive_build_info",
            "Build metadata; the value is always 1.",
            "gauge",
        );
        push_sample(
            &mut out,
            "beehive_build_info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                (
                    "git_sha",
                    option_env!("BEEHIVE_GIT_SHA").unwrap_or("unknown"),
                ),
            ],
            1.0,
        );
        push_header(
            &mut out,
            "beehive_uptime_seconds",
            "Seconds since analytics started.",
            "gauge",
        );
        push_sample(
            &mut out,
            "beehive_uptime_seconds",
            &[],
            self.uptime_seconds(),
        );
        type AppValue = fn(&AppLoad) -> f64;
        let app_families: [(&str, &str, &str, AppValue); 5] = [
            (
                "beehive_app_messages_total",
                "Messages processed per application.",
                "counter",
                |l| l.msgs as f64,
            ),
            (
                "beehive_app_bytes_total",
                "Wire bytes received per application.",
                "counter",
                |l| l.bytes as f64,
            ),
            (
                "beehive_app_handler_seconds_total",
                "Time spent in rcv functions.",
                "counter",
                |l| l.handler_nanos as f64 / 1e9,
            ),
            (
                "beehive_app_errors_total",
                "Rolled-back handler invocations.",
                "counter",
                |l| l.errors as f64,
            ),
            (
                "beehive_app_bees",
                "Distinct bees observed per application.",
                "gauge",
                |l| l.bees as f64,
            ),
        ];
        for (name, help, ty, value) in app_families {
            push_header(&mut out, name, help, ty);
            for (app, load) in &self.per_app {
                push_sample(&mut out, name, &[("app", app)], value(load));
            }
        }
        push_header(
            &mut out,
            "beehive_hive_messages_total",
            "Messages processed per hive.",
            "counter",
        );
        for (hive, msgs) in &self.msgs_per_hive {
            let h = hive.to_string();
            push_sample(
                &mut out,
                "beehive_hive_messages_total",
                &[("hive", &h)],
                *msgs as f64,
            );
        }
        push_header(
            &mut out,
            "beehive_provenance_emissions_total",
            "Emissions of out_type caused by in_type.",
            "counter",
        );
        for (k, count) in &self.provenance {
            push_sample(
                &mut out,
                "beehive_provenance_emissions_total",
                &[
                    ("app", &k.app),
                    ("in_type", short_type(&k.in_type)),
                    ("out_type", short_type(&k.out_type)),
                ],
                *count as f64,
            );
        }
        // The platform families render unconditionally (zeros visible), so
        // dashboards and the smoke jobs can rely on their presence.
        let mut family = "";
        for (row, value) in self.platform().rows() {
            if row.family != family {
                family = row.family;
                push_header(&mut out, family, row.help, row.kind.prometheus_type());
            }
            push_sample(&mut out, family, row.label.as_slice(), value as f64);
        }
        push_histogram_family(
            &mut out,
            "beehive_queue_wait_seconds",
            "Local queue wait before the handler ran.",
            self.latency.iter().map(|(k, l)| (k, &l.queue_wait)),
        );
        push_histogram_family(
            &mut out,
            "beehive_handler_runtime_seconds",
            "Time inside the rcv function.",
            self.latency.iter().map(|(k, l)| (k, &l.runtime)),
        );
        out
    }

    /// Provenance ratios: for each `(app, in_type, out_type)`, emissions per
    /// delivered input of that type (requires the denominators shipped in
    /// the same reports via `BeeStats::msgs_in`; we use per-app totals when
    /// exact per-type counts are unavailable in the aggregate).
    pub fn provenance_rows(&self) -> Vec<ProvenanceRow> {
        self.provenance
            .iter()
            .map(|(k, &count)| {
                let denom = self.per_app.get(&k.app).map(|l| l.msgs).unwrap_or(0).max(1);
                ProvenanceRow {
                    app: k.app.clone(),
                    in_type: short_type(&k.in_type).to_string(),
                    out_type: short_type(&k.out_type).to_string(),
                    emissions: count,
                    per_app_input_ratio: count as f64 / denom as f64,
                }
            })
            .collect()
    }
}

/// Escapes a Prometheus label value.
fn escape_label(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Appends one family's `# HELP` and `# TYPE` lines.
pub(crate) fn push_header(out: &mut String, name: &str, help: &str, ty: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {ty}\n"));
}

/// Appends one `name{labels} value` exposition line.
pub(crate) fn push_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            escape_label(v, out);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&format_value(value));
    out.push('\n');
}

/// Formats a sample value: integers without a fraction, everything else via
/// `{}` (shortest roundtrip form).
fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Appends one histogram family: cumulative `_bucket{le=...}` lines plus
/// `_sum` and `_count` per (app, message type) series, bounds in seconds.
fn push_histogram_family<'a>(
    out: &mut String,
    name: &str,
    help: &str,
    series: impl Iterator<Item = (&'a (String, String), &'a LatencyHistogram)>,
) {
    push_header(out, name, help, "histogram");
    for ((app, ty), hist) in series {
        let ty = short_type(ty);
        let mut cumulative = 0u64;
        for (i, &count) in hist.buckets.iter().enumerate() {
            cumulative += count;
            let le = match LATENCY_BUCKETS_US.get(i) {
                Some(&bound) => format_value(bound as f64 / 1e6),
                None => "+Inf".to_string(),
            };
            push_sample(
                out,
                &format!("{name}_bucket"),
                &[("app", app), ("msg", ty), ("le", &le)],
                cumulative as f64,
            );
        }
        push_sample(
            out,
            &format!("{name}_sum"),
            &[("app", app), ("msg", ty)],
            hist.sum_us as f64 / 1e6,
        );
        push_sample(
            out,
            &format!("{name}_count"),
            &[("app", app), ("msg", ty)],
            hist.count as f64,
        );
    }
}

/// One provenance line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProvenanceRow {
    /// Application.
    pub app: String,
    /// Input message type (short name).
    pub in_type: String,
    /// Output message type (short name).
    pub out_type: String,
    /// Total emissions observed.
    pub emissions: u64,
    /// Emissions per message the app processed.
    pub per_app_input_ratio: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{BeeId, HiveId};
    use crate::metrics::{BeeStats, BeeStatsSnapshot};

    fn report(hive: u32, app: &str, bee: u32, msgs: u64) -> HiveMetrics {
        let mut stats = BeeStats::default();
        for _ in 0..msgs {
            stats.record_in(HiveId(hive), Some(BeeId::new(HiveId(9), 9)), 100);
        }
        HiveMetrics {
            hive: HiveId(hive),
            seq: 1,
            now_ms: 1000,
            bees: vec![BeeStatsSnapshot {
                app: app.into(),
                bee: BeeId::new(HiveId(hive), bee),
                hive: HiveId(hive),
                pinned: false,
                cells: 1,
                stats,
            }],
            provenance: vec![(
                ProvenanceKey {
                    app: app.into(),
                    in_type: "mod::PacketIn".into(),
                    out_type: "mod::PacketOut".into(),
                },
                msgs * 8 / 10,
            )],
            latency: Vec::new(),
            platform: Default::default(),
        }
    }

    #[test]
    fn ingest_accumulates_loads() {
        let mut a = Analytics::new();
        a.ingest(&report(1, "ls", 1, 10));
        a.ingest(&report(2, "ls", 2, 30));
        a.ingest(&report(2, "ls", 2, 10)); // a known bee's next window
        let load = a.app("ls").unwrap();
        assert_eq!(load.msgs, 50);
        assert_eq!(load.bytes, 5000);
        assert_eq!(load.bees, 2);
    }

    #[test]
    fn messages_per_hive_render() {
        let mut a = Analytics::new();
        a.ingest(&report(1, "ls", 1, 75));
        a.ingest(&report(2, "ls", 2, 25));
        let text = a.render_prometheus();
        assert!(text.contains("beehive_hive_messages_total{hive=\"1\"} 75\n"));
        assert!(text.contains("beehive_hive_messages_total{hive=\"2\"} 25\n"));
    }

    #[test]
    fn latency_histograms_aggregate_and_render() {
        let mut r = report(1, "te", 1, 3);
        let mut lat = MsgLatency::default();
        lat.queue_wait.observe(900); // → 1ms bucket
        lat.queue_wait.observe(40);
        lat.queue_wait.observe(40);
        lat.runtime.observe(400);
        lat.runtime.observe(400);
        lat.runtime.observe(9_000);
        r.latency.push(("te".into(), "mod::StatReply".into(), lat));
        let mut a = Analytics::new();
        a.ingest(&r);
        a.ingest(&r); // two windows fold together
        assert_eq!(a.p99_runtime_us("te"), Some(10_000));
        assert_eq!(a.p99_queue_wait_us("te"), Some(1_000));
        assert_eq!(a.p99_runtime_us("nope"), None);

        let text = a.render_prometheus();
        // Families appear exactly once.
        for family in [
            "beehive_app_messages_total",
            "beehive_queue_wait_seconds",
            "beehive_handler_runtime_seconds",
        ] {
            assert_eq!(
                text.matches(&format!("# TYPE {family} ")).count(),
                1,
                "family {family} duplicated:\n{text}"
            );
        }
        // Histogram counts match observations across both windows; labels
        // use short type names; +Inf closes the bucket series.
        assert!(
            text.contains("beehive_handler_runtime_seconds_count{app=\"te\",msg=\"StatReply\"} 6"),
            "{text}"
        );
        assert!(text.contains("le=\"+Inf\"} 6"), "{text}");
        assert!(text.contains(
            "beehive_queue_wait_seconds_bucket{app=\"te\",msg=\"StatReply\",le=\"0.00005\"} 4"
        ));
        assert!(text.contains("beehive_app_messages_total{app=\"te\"} 6"));
    }

    #[test]
    fn provenance_rows_report_the_papers_example() {
        // "packet out messages are emitted … upon receiving 80% of packet in's"
        let mut a = Analytics::new();
        a.ingest(&report(1, "learning-switch", 1, 100));
        let rows = a.provenance_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].in_type, "PacketIn");
        assert_eq!(rows[0].out_type, "PacketOut");
        assert!((rows[0].per_app_input_ratio - 0.8).abs() < 1e-9);
    }
}
