//! Platform applications, built with the very abstraction they serve (the
//! paper: "We implemented this mechanism using the proposed abstraction as a
//! control application"):
//!
//! * [`Tick`] — the periodic timer message (`on TimeOut` in the paper);
//! * [`collector_app`] — per-hive, reads the local instrumentation store and
//!   emits [`HiveMetrics`] reports;
//! * [`exporter_app`] — per-hive, folds the reports into the [`Analytics`]
//!   store the status server renders;
//! * [`optimizer_app`] — aggregates reports on a single bee (its dictionary
//!   is monolithic — dogfooding the centralized-app pattern) and issues
//!   migration orders per the greedy heuristic.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::analytics::Analytics;
use crate::app::App;
use crate::id::{BeeId, HiveId};
use crate::metrics::{
    BeeStats, BeeStatsSnapshot, HiveMetrics, Instrumentation, LatencyHistogram, ProvenanceKey,
};
use crate::optimizer::{plan_migrations, BeeLoad, OptimizerConfig};
use crate::sync::Mutex;

/// The periodic platform timer message; the abstraction's `on TimeOut`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tick {
    /// Monotonic tick counter (per emitting hive).
    pub seq: u64,
    /// Platform time at emission, in ms.
    pub now_ms: u64,
}
crate::impl_message!(Tick);

/// Name of the collector platform app.
pub const COLLECTOR_APP: &str = "beehive.collector";
/// Name of the optimizer platform app.
pub const OPTIMIZER_APP: &str = "beehive.optimizer";
/// Name of the exporter platform app.
pub const EXPORTER_APP: &str = "beehive.exporter";

/// Builds the per-hive metrics collector. It runs on a pinned local
/// singleton bee; on every [`Tick`] it drains the hive's instrumentation
/// store and emits the delta as a [`HiveMetrics`] report.
pub fn collector_app(instr: Arc<Mutex<Instrumentation>>) -> App {
    App::builder(COLLECTOR_APP)
        .handle_local::<Tick>("collect", move |tick, ctx| {
            let Instrumentation {
                bees,
                bee_cells,
                pinned,
                provenance,
                latency,
                platform,
                ..
            } = instr.lock().take();
            if bees.is_empty() && provenance.is_empty() && latency.is_empty() && platform.is_zero()
            {
                return Ok(());
            }
            let hive = ctx.hive();
            ctx.emit(HiveMetrics {
                hive,
                seq: tick.seq,
                now_ms: tick.now_ms,
                bees: bees
                    .into_iter()
                    .map(|((app, bee), stats)| BeeStatsSnapshot {
                        app: app.into(),
                        bee: BeeId(bee),
                        hive,
                        pinned: pinned.contains(&bee),
                        cells: bee_cells.get(&bee).copied().unwrap_or(0),
                        stats,
                    })
                    .collect(),
                provenance: provenance
                    .into_iter()
                    .map(|((app, in_type, out_type), n)| {
                        let key = ProvenanceKey {
                            app: app.into(),
                            in_type: in_type.into(),
                            out_type: out_type.into(),
                        };
                        (key, n)
                    })
                    .collect(),
                latency: latency
                    .into_iter()
                    .map(|((app, ty), lat)| (app.into(), ty.into(), lat))
                    .collect(),
                platform,
            });
            Ok(())
        })
        .build()
}

/// Builds the per-hive exporter: a pinned local singleton that folds every
/// [`HiveMetrics`] report reaching this hive into `sink`, the store the
/// status server renders as `GET /metrics`.
pub fn exporter_app(sink: Arc<std::sync::Mutex<Analytics>>) -> App {
    App::builder(EXPORTER_APP)
        .handle_local::<HiveMetrics>("export", move |report, _ctx| {
            sink.lock().expect("analytics lock poisoned").ingest(report);
            Ok(())
        })
        .build()
}

/// A per-bee aggregate stored by the optimizer app.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct AggRecord {
    app: String,
    bee: u64,
    hive: u32,
    pinned: bool,
    cells: u64,
    stats: BeeStats,
    last_seen_ms: u64,
}

/// Builds the aggregator/optimizer. Its `agg` dictionary is declared whole
/// (`MapSpec::WholeDicts`), so all reports flow to one bee cluster-wide —
/// exactly the paper's "periodically aggregate them on a single hive". Every
/// `optimize_every` ticks it applies the greedy heuristic and orders
/// migrations.
pub fn optimizer_app(cfg: OptimizerConfig, optimize_every: u64) -> App {
    let cfg2 = cfg.clone();
    App::builder(OPTIMIZER_APP)
        .handle_whole::<HiveMetrics>("aggregate", &["agg"], move |m, ctx| {
            for snap in &m.bees {
                let key = format!("{}/{}", snap.app, snap.bee.0);
                let mut rec: AggRecord = ctx.get("agg", &key)?.unwrap_or_default();
                rec.app = snap.app.clone();
                rec.bee = snap.bee.0;
                rec.hive = snap.hive.0;
                rec.pinned = rec.pinned || snap.pinned;
                rec.cells = snap.cells;
                // A migration between windows means older in_by_hive data
                // describes a stale placement; fold with decay by simply
                // replacing with the latest window once the bee moved.
                if rec.last_seen_ms != 0 && rec.stats.msgs_in > 0 && rec.hive != snap.hive.0 {
                    rec.stats = BeeStats::default();
                }
                rec.stats.merge(&snap.stats);
                rec.last_seen_ms = m.now_ms;
                ctx.put("agg", key, &rec)?;
            }
            // Per-app handler-runtime histograms, stored under reserved
            // "latency:" keys alongside the per-bee records. The optimize
            // pass uses their p99 to rank which bees to place first.
            for (app, _ty, lat) in &m.latency {
                let key = format!("latency:{app}");
                let mut hist: LatencyHistogram = ctx.get("agg", &key)?.unwrap_or_default();
                hist.merge(&lat.runtime);
                ctx.put("agg", key, &hist)?;
            }
            Ok(())
        })
        .handle_whole::<Tick>("optimize", &["agg"], move |t, ctx| {
            if optimize_every == 0 || t.seq % optimize_every != 0 {
                return Ok(());
            }
            let keys = ctx.keys("agg");
            // First pass: per-app p99 handler runtimes from the reserved
            // "latency:" keys (they hold LatencyHistograms, not AggRecords).
            let mut p99_by_app = std::collections::BTreeMap::new();
            for k in &keys {
                let Some(app) = k.strip_prefix("latency:") else {
                    continue;
                };
                if let Some(hist) = ctx.get::<LatencyHistogram>("agg", k)? {
                    if let Some(p99) = hist.p99_us() {
                        p99_by_app.insert(app.to_string(), p99);
                    }
                }
            }
            let mut loads = Vec::with_capacity(keys.len());
            let mut occupancy = std::collections::BTreeMap::new();
            for k in &keys {
                if k.starts_with("latency:") {
                    continue;
                }
                let Some(rec) = ctx.get::<AggRecord>("agg", k)? else {
                    continue;
                };
                *occupancy.entry(rec.hive).or_insert(0usize) += 1;
                loads.push(BeeLoad {
                    app: rec.app.clone(),
                    bee: BeeId(rec.bee),
                    hive: HiveId(rec.hive),
                    pinned: rec.pinned,
                    cells: rec.cells,
                    in_by_hive: rec.stats.in_by_hive.clone(),
                    p99_runtime_us: p99_by_app.get(&rec.app).copied().unwrap_or(0),
                });
            }
            let plans = plan_migrations(&loads, &occupancy, &cfg2);
            for plan in plans {
                // Reset the moved bee's window so the next decision uses
                // post-migration traffic only.
                let key = format!("{}/{}", plan.app, plan.bee.0);
                if let Some(mut rec) = ctx.get::<AggRecord>("agg", &key)? {
                    rec.stats = BeeStats::default();
                    rec.hive = plan.to.0;
                    ctx.put("agg", key, &rec)?;
                }
                ctx.order_migration(plan.app, plan.bee, plan.from, plan.to);
            }
            Ok(())
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Mapped;
    use crate::message::TypedMessage;

    #[test]
    fn tick_is_a_message() {
        let t = Tick {
            seq: 1,
            now_ms: 1000,
        };
        let bytes = crate::message::Message::encode(&t).unwrap();
        let back = Tick::decode(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn collector_is_local_singleton() {
        let instr = Arc::new(Mutex::new(Instrumentation::default()));
        let app = collector_app(instr);
        assert_eq!(app.name(), COLLECTOR_APP);
        let idx = app.handlers_for(Tick::wire_name());
        assert_eq!(idx.len(), 1);
        assert_eq!(
            app.map(idx[0], &Tick { seq: 1, now_ms: 0 }),
            Mapped::LocalSingleton
        );
    }

    #[test]
    fn optimizer_agg_dict_is_monolithic() {
        let app = optimizer_app(OptimizerConfig::default(), 5);
        assert!(app.is_monolithic("agg"));
        // Both handlers exist: one for HiveMetrics, one for Tick.
        assert_eq!(app.handlers_for(HiveMetrics::wire_name()).len(), 1);
        assert_eq!(app.handlers_for(Tick::wire_name()).len(), 1);
    }
}
