//! Design feedback (paper §3, §5): the platform analyzes applications and
//! their runtime behaviour and tells the developer where the design
//! bottlenecks are — e.g. that the naive TE's `Route` makes the whole
//! application effectively centralized.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::app::App;
use crate::id::{BeeId, HiveId};
use crate::metrics::{BeeStatsSnapshot, MsgLatency};

/// One observation about an application's design or behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FeedbackItem {
    /// A dictionary is monolithic: some handler maps it whole, so *all* its
    /// cells collocate on a single bee, centralizing every function that
    /// shares the dictionary.
    MonolithicDict {
        /// The dictionary.
        dict: String,
        /// Handlers that declare whole-dictionary access.
        handlers: Vec<String>,
    },
    /// At runtime, one bee processes a dominant share of the app's messages:
    /// the application is effectively centralized.
    CentralizedExecution {
        /// The hot bee.
        bee: BeeId,
        /// The hive hosting it.
        hive: HiveId,
        /// Fraction of the app's messages it processed (0..=1).
        share: f64,
        /// Worst p99 handler runtime observed for the app, in µs — latency
        /// evidence that centralization actually hurts (None = no histogram
        /// data in the window).
        p99_runtime_us: Option<u64>,
    },
    /// A bee receives the majority of its messages from a *different* hive —
    /// placement is suboptimal (the optimizer will usually fix this; if it
    /// can't, the hint points at pinned producers).
    RemoteChatter {
        /// The bee.
        bee: BeeId,
        /// Its current hive.
        hive: HiveId,
        /// The hive most of its input comes from.
        dominant_source: HiveId,
        /// Fraction of its input from that hive (0..=1).
        share: f64,
        /// Worst p99 queue wait observed for the app, in µs — the latency
        /// cost of the misplacement (None = no histogram data).
        p99_queue_wait_us: Option<u64>,
    },
    /// Handlers touched cells their map does not name: each such message
    /// cost a rolled-back attempt and a registry round before it committed.
    Remaps {
        /// Messages re-mapped.
        remaps: u64,
    },
    /// A bee fails a large share of its deliveries: its messages burn their
    /// redelivery budget, land in the dead-letter queue, and the bee risks
    /// quarantine. Usually a handler bug or a poison message class.
    FailingHandler {
        /// The failing bee.
        bee: BeeId,
        /// The hive hosting it.
        hive: HiveId,
        /// Failed (rolled-back) deliveries observed in the window.
        failures: u64,
        /// Fraction of the bee's deliveries that failed (0..=1).
        failure_rate: f64,
    },
}

impl fmt::Display for FeedbackItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedbackItem::MonolithicDict { dict, handlers } => write!(
                f,
                "dictionary {dict:?} is monolithic because handler(s) {handlers:?} map it whole; \
                 every function sharing {dict:?} is effectively centralized"
            ),
            FeedbackItem::CentralizedExecution {
                bee,
                hive,
                share,
                p99_runtime_us,
            } => {
                write!(
                    f,
                    "{:.0}% of this app's messages are processed by {bee} on {hive}: \
                     the app is effectively centralized",
                    share * 100.0
                )?;
                if let Some(p99) = p99_runtime_us {
                    write!(f, " (p99 handler runtime {p99}us)")?;
                }
                Ok(())
            }
            FeedbackItem::RemoteChatter {
                bee,
                hive,
                dominant_source,
                share,
                p99_queue_wait_us,
            } => {
                write!(
                    f,
                    "{bee} on {hive} receives {:.0}% of its messages from {dominant_source}: \
                     placement is suboptimal",
                    share * 100.0
                )?;
                if let Some(p99) = p99_queue_wait_us {
                    write!(f, " (p99 queue wait {p99}us)")?;
                }
                Ok(())
            }
            FeedbackItem::Remaps { remaps } => write!(
                f,
                "{remaps} message(s) touched cells outside their map and re-mapped before \
                 committing; map functions should name every entry the handler touches \
                 (see the remap events)"
            ),
            FeedbackItem::FailingHandler {
                bee,
                hive,
                failures,
                failure_rate,
            } => write!(
                f,
                "{bee} on {hive} failed {:.0}% of its deliveries ({failures} rollbacks): \
                 messages will exhaust their redelivery budget and dead-letter, and the bee \
                 risks quarantine",
                failure_rate * 100.0
            ),
        }
    }
}

/// A feedback report for one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedbackReport {
    /// The application.
    pub app: String,
    /// Observations, most severe first.
    pub items: Vec<FeedbackItem>,
}

impl FeedbackReport {
    /// Whether the report flags the app as (effectively) centralized.
    pub fn is_centralized(&self) -> bool {
        self.items.iter().any(|i| {
            matches!(
                i,
                FeedbackItem::MonolithicDict { .. } | FeedbackItem::CentralizedExecution { .. }
            )
        })
    }
}

impl fmt::Display for FeedbackReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "feedback for app {:?}:", self.app)?;
        if self.items.is_empty() {
            writeln!(f, "  no design bottlenecks detected")?;
        }
        for item in &self.items {
            writeln!(f, "  - {item}")?;
        }
        Ok(())
    }
}

/// Static analysis: inspects an application's declared mappings.
pub fn design_feedback(app: &App) -> FeedbackReport {
    let mut items = Vec::new();
    for (dict, handlers) in app.whole_dict_handlers() {
        items.push(FeedbackItem::MonolithicDict { dict, handlers });
    }
    FeedbackReport {
        app: app.name().to_string(),
        items,
    }
}

/// Runtime analysis: inspects aggregated per-bee statistics for one app.
///
/// `centralization_threshold` — flag when one bee's share of messages exceeds
/// it (paper-style default: 0.9). `chatter_threshold` — flag bees receiving
/// more than this fraction of their input from one remote hive. `latency` —
/// the app's per-message-type histograms, if collected; findings then cite
/// p99 latency evidence alongside the counts. `remaps` — the hive's count.
pub fn runtime_feedback(
    app: &str,
    snapshots: &[BeeStatsSnapshot],
    latency: Option<&BTreeMap<(String, String), MsgLatency>>,
    remaps: u64,
    centralization_threshold: f64,
    chatter_threshold: f64,
) -> FeedbackReport {
    let mut items = Vec::new();

    let app_p99 = |pick: fn(&MsgLatency) -> &crate::metrics::LatencyHistogram| {
        latency.and_then(|map| {
            map.iter()
                .filter(|((a, _), _)| a == app)
                .filter_map(|(_, l)| pick(l).p99_us())
                .max()
        })
    };
    let p99_runtime_us = app_p99(|l| &l.runtime);
    let p99_queue_wait_us = app_p99(|l| &l.queue_wait);

    let relevant: Vec<&BeeStatsSnapshot> = snapshots
        .iter()
        .filter(|s| s.app == app && !s.pinned)
        .collect();
    let total_msgs: u64 = relevant.iter().map(|s| s.stats.msgs_in).sum();

    if total_msgs > 0 {
        if let Some(top) = relevant.iter().max_by_key(|s| s.stats.msgs_in) {
            let share = top.stats.msgs_in as f64 / total_msgs as f64;
            if relevant.len() > 1 && share >= centralization_threshold {
                items.push(FeedbackItem::CentralizedExecution {
                    bee: top.bee,
                    hive: top.hive,
                    share,
                    p99_runtime_us,
                });
            }
        }
    }

    for s in &relevant {
        if let Some((src, count, total)) = s.stats.dominant_source_hive() {
            if src != s.hive && total >= 10 {
                let share = count as f64 / total as f64;
                if share > chatter_threshold {
                    items.push(FeedbackItem::RemoteChatter {
                        bee: s.bee,
                        hive: s.hive,
                        dominant_source: src,
                        share,
                        p99_queue_wait_us,
                    });
                }
            }
        }
    }

    // Failing handlers: flag bees whose rollback rate is high enough that
    // supervision (redelivery, dead-lettering, quarantine) is doing real
    // work. Pinned bees are included — a failing platform bee matters too.
    const FAILURE_MIN_SAMPLES: u64 = 10;
    const FAILURE_RATE_THRESHOLD: f64 = 0.5;
    for s in snapshots.iter().filter(|s| s.app == app) {
        if s.stats.msgs_in < FAILURE_MIN_SAMPLES {
            continue;
        }
        let rate = s.stats.errors as f64 / s.stats.msgs_in as f64;
        if rate >= FAILURE_RATE_THRESHOLD {
            items.push(FeedbackItem::FailingHandler {
                bee: s.bee,
                hive: s.hive,
                failures: s.stats.errors,
                failure_rate: rate,
            });
        }
    }

    if remaps > 0 {
        items.push(FeedbackItem::Remaps { remaps });
    }

    FeedbackReport {
        app: app.to_string(),
        items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Mapped;
    use crate::metrics::BeeStats;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct M {
        k: String,
    }
    crate::impl_message!(M);

    fn snap(app: &str, bee: u32, hive: u32, msgs: u64, from_hive: u32) -> BeeStatsSnapshot {
        let mut stats = BeeStats::default();
        for _ in 0..msgs {
            stats.record_in(
                HiveId(from_hive),
                Some(BeeId::new(HiveId(from_hive), 99)),
                10,
            );
        }
        BeeStatsSnapshot {
            app: app.into(),
            bee: BeeId::new(HiveId(1), bee),
            hive: HiveId(hive),
            pinned: false,
            cells: 1,
            stats,
        }
    }

    #[test]
    fn monolithic_dict_is_flagged() {
        let app = App::builder("naive-te")
            .handle::<M>(|m| Mapped::cell("S", &m.k), |_m, _c| Ok(()))
            .handle_whole::<M>("Route", &["S", "T"], |_m, _c| Ok(()))
            .build();
        let report = design_feedback(&app);
        assert!(report.is_centralized());
        assert_eq!(report.items.len(), 2); // S and T
        assert!(report.to_string().contains("Route"));
    }

    #[test]
    fn clean_app_gets_clean_report() {
        let app = App::builder("clean")
            .handle::<M>(|m| Mapped::cell("S", &m.k), |_m, _c| Ok(()))
            .build();
        let report = design_feedback(&app);
        assert!(!report.is_centralized());
        assert!(report.items.is_empty());
    }

    #[test]
    fn centralized_execution_detected() {
        let snaps = vec![
            snap("te", 1, 1, 95, 1),
            snap("te", 2, 2, 3, 2),
            snap("te", 3, 3, 2, 3),
        ];
        let report = runtime_feedback("te", &snaps, None, 0, 0.9, 0.5);
        assert!(report.is_centralized());
    }

    #[test]
    fn balanced_execution_not_flagged() {
        let snaps = vec![
            snap("te", 1, 1, 30, 1),
            snap("te", 2, 2, 35, 2),
            snap("te", 3, 3, 35, 3),
        ];
        let report = runtime_feedback("te", &snaps, None, 0, 0.9, 0.95);
        assert!(!report.is_centralized());
    }

    #[test]
    fn remote_chatter_detected() {
        // Bee on hive 1 fed overwhelmingly from hive 4.
        let snaps = vec![snap("te", 1, 1, 100, 4)];
        let report = runtime_feedback("te", &snaps, None, 0, 2.0, 0.5);
        assert!(matches!(
            report.items.first(),
            Some(FeedbackItem::RemoteChatter {
                dominant_source: HiveId(4),
                ..
            })
        ));
    }

    #[test]
    fn latency_evidence_is_cited_when_available() {
        let snaps = vec![snap("te", 1, 1, 95, 1), snap("te", 2, 2, 5, 2)];
        let mut lat = MsgLatency::default();
        lat.runtime.observe(4_000);
        let mut map = BTreeMap::new();
        map.insert(("te".to_string(), "M".to_string()), lat);
        let report = runtime_feedback("te", &snaps, Some(&map), 0, 0.9, 0.5);
        assert!(matches!(
            report.items.first(),
            Some(FeedbackItem::CentralizedExecution {
                p99_runtime_us: Some(_),
                ..
            })
        ));
        assert!(report.to_string().contains("p99 handler runtime"));
    }

    #[test]
    fn failing_handler_cited_with_rate() {
        let mut s = snap("te", 1, 1, 20, 1);
        s.stats.errors = 15;
        let report = runtime_feedback("te", &[s], None, 0, 0.9, 0.5);
        assert!(matches!(
            report.items.first(),
            Some(FeedbackItem::FailingHandler { failures: 15, .. })
        ));
        assert!(report.to_string().contains("failed 75% of its deliveries"));

        // Below the sample floor or the rate threshold: no finding.
        let mut quiet = snap("te", 2, 1, 5, 1);
        quiet.stats.errors = 5;
        let report = runtime_feedback("te", &[quiet], None, 0, 0.9, 0.5);
        assert!(report.items.is_empty());
        let mut healthy = snap("te", 3, 1, 100, 1);
        healthy.stats.errors = 2;
        let report = runtime_feedback("te", &[healthy], None, 0, 0.9, 0.5);
        assert!(report.items.is_empty());
    }

    #[test]
    fn remaps_reported() {
        let report = runtime_feedback("te", &[], None, 3, 0.9, 0.5);
        assert_eq!(report.items, vec![FeedbackItem::Remaps { remaps: 3 }]);
    }
}
