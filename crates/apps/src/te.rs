//! Traffic Engineering — the paper's running example (Figure 2).
//!
//! Two designs of the same application:
//!
//! * [`naive_te_app`]: one app with functions `Init`, `Query`, `Collect`,
//!   `Route` sharing dictionary `S`, where `Route` maps **whole** `S` and
//!   `T`. The platform therefore collocates every cell of `S` on a single
//!   bee — the whole app is effectively centralized (paper §2: "our naive TE
//!   application cannot scale well"; Figure 4a/4d).
//! * [`decoupled_te_apps`]: `Route` is split into its own app with its own
//!   dictionaries, fed aggregated [`MatrixUpdate`] events by `Collect`
//!   (paper §5 "Decoupling Functions"; Figure 4b/4e). Collection now runs on
//!   per-switch cells, i.e. next to each switch's master hive.

use beehive_core::prelude::*;
use beehive_openflow::driver::{FlowStatQuery, InstallRule, StatReply, SwitchJoined};
use serde::{Deserialize, Serialize};

use crate::discovery::LinkDiscovered;

/// Name of the naive TE app.
pub const NAIVE_TE_APP: &str = "te";
/// Name of the decoupled collection app.
pub const TE_COLLECT_APP: &str = "te.collect";
/// Name of the decoupled routing app.
pub const TE_ROUTE_APP: &str = "te.route";

/// TE tunables.
#[derive(Debug, Clone, Copy)]
pub struct TeConfig {
    /// The re-routing threshold δ, in bytes/second: flows above it are
    /// re-steered.
    pub delta_bytes_per_sec: u64,
}

impl Default for TeConfig {
    fn default() -> Self {
        TeConfig {
            delta_bytes_per_sec: 50_000,
        }
    }
}

/// Aggregated flow-matrix event sent by decoupled `Collect` to `Route` when
/// a flow's measured rate crosses δ.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixUpdate {
    /// The switch observing the flow.
    pub switch: u64,
    /// Flow source address.
    pub nw_src: u32,
    /// Flow destination address.
    pub nw_dst: u32,
    /// Estimated rate (B/s).
    pub rate: u64,
}
impl_message!(MatrixUpdate);

/// Per-switch flow statistics record stored in `S`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SwitchStats {
    /// Last observed cumulative byte count per flow `(nw_src, nw_dst)`.
    pub last_bytes: std::collections::BTreeMap<(u32, u32), u64>,
    /// Last estimated rate per flow (B/s).
    pub rates: std::collections::BTreeMap<(u32, u32), u64>,
    /// Timestamp of the last stats reply (ms).
    pub last_reply_ms: u64,
    /// Whether a baseline reply has been recorded.
    pub primed: bool,
    /// Flows already re-routed (don't re-steer every second).
    pub rerouted: std::collections::BTreeSet<(u32, u32)>,
}

/// Updates a [`SwitchStats`] with a new reply; returns the flows whose rate
/// now exceeds δ and were not yet re-routed.
fn collect_into(
    stats: &mut SwitchStats,
    reply: &StatReply,
    now_ms: u64,
    delta: u64,
) -> Vec<(u32, u32, u64)> {
    let dt_ms = if !stats.primed {
        1000
    } else {
        now_ms.saturating_sub(stats.last_reply_ms).max(1)
    };
    let mut hot = Vec::new();
    for f in &reply.flows {
        let key = (f.nw_src, f.nw_dst);
        let last = stats.last_bytes.get(&key).copied().unwrap_or(0);
        let rate = if f.bytes >= last {
            (f.bytes - last) * 1000 / dt_ms
        } else {
            0
        };
        stats.last_bytes.insert(key, f.bytes);
        // First reply has no baseline: skip rate estimation to avoid
        // counting the entire lifetime as one interval.
        if !stats.primed {
            continue;
        }
        stats.rates.insert(key, rate);
        if rate > delta && !stats.rerouted.contains(&key) {
            stats.rerouted.insert(key);
            hot.push((f.nw_src, f.nw_dst, rate));
        }
    }
    stats.last_reply_ms = now_ms;
    stats.primed = true;
    hot
}

const S: &str = "S";
const T: &str = "T";
const M: &str = "M";

fn store_link(ctx: &mut RcvCtx<'_>, dict: &str, m: &LinkDiscovered) -> HandlerResult {
    ctx.put(dict, format!("{}-{}", m.src, m.dst), m)
}

/// `func Init` — on SwitchJoined, with `S[joined.switch]`.
fn init(_m: &SwitchJoined, ctx: &mut RcvCtx<'_>) -> HandlerResult {
    ctx.put_entry(&SwitchStats::default())
}

/// `func Query` — on TimeOut, for each switch in `S`.
fn query(_t: &Tick, ctx: &mut RcvCtx<'_>) -> HandlerResult {
    for key in ctx.keys(S) {
        if let Ok(switch) = key.parse::<u64>() {
            ctx.emit(FlowStatQuery { switch });
        }
    }
    Ok(())
}

/// `func Collect` — on StatReply, with `S[reply.switch]`. A flow whose rate
/// first crosses `delta` leaves as a [`MatrixUpdate`].
fn collect(delta: u64) -> impl Fn(&StatReply, &mut RcvCtx<'_>) -> HandlerResult + Send {
    move |m, ctx| {
        let now = ctx.now_ms();
        let hot = ctx.update_entry(|stats| collect_into(stats, m, now, delta))?;
        for (nw_src, nw_dst, rate) in hot {
            ctx.emit(MatrixUpdate {
                switch: m.switch,
                nw_src,
                nw_dst,
                rate,
            });
        }
        Ok(())
    }
}

/// Builds the **naive** TE app of Figure 2. `Route` maps whole `S` and `T`;
/// the platform collapses all of `S` onto one bee.
pub fn naive_te_app(cfg: TeConfig) -> App {
    let delta = cfg.delta_bytes_per_sec;
    App::builder(NAIVE_TE_APP)
        .with::<SwitchJoined>("Init", S, |m| m.dpid.to_string(), init)
        .handle_broadcast::<Tick>("Query", query)
        // In the naive design Collect only records (no rate crosses
        // u64::MAX); Route scans S.
        .with::<StatReply>("Collect", S, |m| m.switch.to_string(), collect(u64::MAX))
        // func Route — on TimeOut: with S and T (WHOLE dictionaries).
        .handle_whole::<Tick>("Route", &[S, T], move |_t, ctx| {
            for key in ctx.keys(S) {
                let Some(mut stats) = ctx.get::<SwitchStats>(S, &key)? else {
                    continue;
                };
                let Ok(switch) = key.parse::<u64>() else {
                    continue;
                };
                let hot: Vec<(u32, u32, u64)> = stats
                    .rates
                    .iter()
                    .filter(|(k, &r)| r > delta && !stats.rerouted.contains(k))
                    .map(|(&(s, d), &r)| (s, d, r))
                    .collect();
                if hot.is_empty() {
                    continue;
                }
                for (nw_src, nw_dst, _rate) in &hot {
                    stats.rerouted.insert((*nw_src, *nw_dst));
                    // Re-steer using T (alternate port 2; the decision logic
                    // is deliberately simple — the paper's point is *where*
                    // this function runs, not the routing algorithm).
                    ctx.emit(InstallRule {
                        switch,
                        match_: beehive_openflow::Match::nw_pair(*nw_src, *nw_dst),
                        priority: 10,
                        out_port: 2,
                    });
                }
                ctx.put(S, key, &stats)?;
            }
            Ok(())
        })
        // Topology upkeep — also whole-T (Route reads T as a whole).
        .handle_whole::<LinkDiscovered>("Topo", &[T], |m, ctx| store_link(ctx, T, m))
        .build()
}

/// Builds the **decoupled** TE: `(collect_app, route_app)`. Collection is
/// per-switch; `Route` lives in its own app fed by [`MatrixUpdate`]s.
pub fn decoupled_te_apps(cfg: TeConfig) -> (App, App) {
    let delta = cfg.delta_bytes_per_sec;
    let collect = App::builder(TE_COLLECT_APP)
        .with::<SwitchJoined>("Init", S, |m| m.dpid.to_string(), init)
        .handle_broadcast::<Tick>("Query", query)
        // Aggregated events decouple Collect from Route: only flows
        // crossing δ travel to the (centralized) Route bee.
        .with::<StatReply>("Collect", S, |m| m.switch.to_string(), collect(delta))
        .build();

    let route = App::builder(TE_ROUTE_APP)
        // func Route — on MatrixUpdate: with M and T (WHOLE dictionaries).
        .handle_whole::<MatrixUpdate>("Route", &[M, T], |m, ctx| {
            let key = format!("{}:{}:{}", m.switch, m.nw_src, m.nw_dst);
            let already: Option<u64> = ctx.get(M, &key)?;
            if already.is_some() {
                return Ok(());
            }
            ctx.put(M, key, &m.rate)?;
            ctx.emit(InstallRule {
                switch: m.switch,
                match_: beehive_openflow::Match::nw_pair(m.nw_src, m.nw_dst),
                priority: 10,
                out_port: 2,
            });
            Ok(())
        })
        .handle_whole::<LinkDiscovered>("Topo", &[T], |m, ctx| store_link(ctx, T, m))
        .build();

    (collect, route)
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_core::feedback::design_feedback;
    use beehive_core::sync::Mutex;
    use beehive_openflow::driver::FlowStat;
    use std::sync::Arc;

    fn standalone() -> Hive {
        let mut cfg = HiveConfig::standalone(HiveId(1));
        cfg.tick_interval_ms = 0; // drive ticks manually
        Hive::new(
            cfg,
            Arc::new(SystemClock::new()),
            Box::new(Loopback::new(HiveId(1))),
        )
    }

    fn reply(switch: u64, flows: &[(u32, u32, u64)]) -> StatReply {
        StatReply {
            switch,
            flows: flows
                .iter()
                .map(|&(s, d, b)| FlowStat {
                    nw_src: s,
                    nw_dst: d,
                    packets: b / 1000,
                    bytes: b,
                    duration_sec: 1,
                })
                .collect(),
        }
    }

    /// Captures InstallRule commands so tests can observe re-routing.
    fn rule_sink(seen: Arc<Mutex<Vec<InstallRule>>>) -> App {
        App::builder("rule-sink")
            .handle::<InstallRule>(
                |m| Mapped::cell("r", m.switch.to_string()),
                move |m, _| {
                    seen.lock().push(m.clone());
                    Ok(())
                },
            )
            .build()
    }

    #[test]
    fn naive_te_is_flagged_centralized_by_design_feedback() {
        let app = naive_te_app(TeConfig::default());
        let report = design_feedback(&app);
        assert!(report.is_centralized());
        let text = report.to_string();
        assert!(
            text.contains("Route"),
            "feedback should name the culprit: {text}"
        );
    }

    #[test]
    fn decoupled_collect_is_not_centralized() {
        let (collect, route) = decoupled_te_apps(TeConfig::default());
        assert!(!design_feedback(&collect).is_centralized());
        // Route is still centralized — but it's an isolated, low-rate app.
        assert!(design_feedback(&route).is_centralized());
    }

    #[test]
    fn naive_te_collapses_all_switches_to_one_bee() {
        let mut hive = standalone();
        hive.install(naive_te_app(TeConfig::default()));
        for sw in 1..=5u64 {
            hive.emit(SwitchJoined {
                dpid: sw,
                n_ports: 4,
            });
        }
        hive.step_until_quiescent(1000);
        assert_eq!(
            hive.local_bee_count(NAIVE_TE_APP),
            1,
            "monolithic S ⇒ one bee"
        );
    }

    #[test]
    fn decoupled_te_creates_per_switch_bees() {
        let mut hive = standalone();
        let (collect, route) = decoupled_te_apps(TeConfig::default());
        hive.install(collect);
        hive.install(route);
        for sw in 1..=5u64 {
            hive.emit(SwitchJoined {
                dpid: sw,
                n_ports: 4,
            });
        }
        hive.step_until_quiescent(1000);
        assert_eq!(hive.local_bee_count(TE_COLLECT_APP), 5);
    }

    #[test]
    fn query_fires_for_every_known_switch() {
        let mut hive = standalone();
        hive.install(naive_te_app(TeConfig::default()));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        hive.install(
            App::builder("query-sink")
                .handle::<FlowStatQuery>(
                    |m| Mapped::cell("q", m.switch.to_string()),
                    move |m, _| {
                        seen2.lock().push(m.switch);
                        Ok(())
                    },
                )
                .build(),
        );
        for sw in 1..=3u64 {
            hive.emit(SwitchJoined {
                dpid: sw,
                n_ports: 4,
            });
        }
        hive.step_until_quiescent(1000);
        hive.emit(Tick {
            seq: 1,
            now_ms: 1000,
        });
        hive.step_until_quiescent(1000);
        let mut switches = seen.lock().clone();
        switches.sort();
        assert_eq!(switches, vec![1, 2, 3]);
    }

    #[test]
    fn decoupled_collect_emits_matrix_update_only_above_delta() {
        // Virtual time so rate estimation sees real 1-second intervals.
        let clock = SimClock::new();
        let mut cfg = HiveConfig::standalone(HiveId(1));
        cfg.tick_interval_ms = 0;
        let mut hive = Hive::new(
            cfg,
            Arc::new(clock.clone()),
            Box::new(Loopback::new(HiveId(1))),
        );
        let (collect, _route) = decoupled_te_apps(TeConfig {
            delta_bytes_per_sec: 1000,
        });
        hive.install(collect);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        hive.install(
            App::builder("mu-sink")
                .handle::<MatrixUpdate>(
                    |m| Mapped::cell("m", m.switch.to_string()),
                    move |m, _| {
                        seen2.lock().push((m.nw_src, m.rate));
                        Ok(())
                    },
                )
                .build(),
        );
        hive.emit(SwitchJoined {
            dpid: 1,
            n_ports: 4,
        });
        hive.step_until_quiescent(1000);
        // First reply: baseline only. Second: rates computed over delta.
        hive.emit(reply(1, &[(100, 200, 0), (101, 201, 0)]));
        hive.step_until_quiescent(1000);
        clock.advance(1000);
        // +5000B/s for flow A (elephant), +100B/s for flow B (mouse).
        hive.emit(reply(1, &[(100, 200, 5_000), (101, 201, 100)]));
        hive.step_until_quiescent(1000);
        let updates = seen.lock().clone();
        assert_eq!(updates.len(), 1, "only the elephant crosses δ: {updates:?}");
        assert_eq!(updates[0].0, 100);
    }

    #[test]
    fn route_installs_rule_once_per_flow() {
        let mut hive = standalone();
        let (_collect, route) = decoupled_te_apps(TeConfig::default());
        hive.install(route);
        let seen = Arc::new(Mutex::new(Vec::new()));
        hive.install(rule_sink(seen.clone()));
        let mu = MatrixUpdate {
            switch: 3,
            nw_src: 1,
            nw_dst: 2,
            rate: 99_999,
        };
        hive.emit(mu.clone());
        hive.emit(mu.clone());
        hive.step_until_quiescent(1000);
        let rules = seen.lock().clone();
        assert_eq!(rules.len(), 1, "idempotent re-routing");
        assert_eq!(rules[0].switch, 3);
        assert_eq!(rules[0].priority, 10);
    }

    #[test]
    fn naive_route_reroutes_hot_flows_end_to_end() {
        let mut hive = standalone();
        hive.install(naive_te_app(TeConfig {
            delta_bytes_per_sec: 1000,
        }));
        let seen = Arc::new(Mutex::new(Vec::new()));
        hive.install(rule_sink(seen.clone()));

        hive.emit(SwitchJoined {
            dpid: 7,
            n_ports: 4,
        });
        hive.step_until_quiescent(1000);
        hive.emit(reply(7, &[(10, 20, 0)]));
        hive.step_until_quiescent(1000);
        hive.emit(reply(7, &[(10, 20, 500_000)]));
        hive.step_until_quiescent(1000);
        // Route runs on the next tick.
        hive.emit(Tick {
            seq: 2,
            now_ms: 2000,
        });
        hive.step_until_quiescent(1000);
        let rules = seen.lock().clone();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].switch, 7);
        // And doesn't re-fire next tick.
        hive.emit(Tick {
            seq: 3,
            now_ms: 3000,
        });
        hive.step_until_quiescent(1000);
        assert_eq!(seen.lock().len(), 1);
    }

    #[test]
    fn rate_estimation_uses_elapsed_time() {
        let mut stats = SwitchStats::default();
        // Baseline at t=1000.
        collect_into(&mut stats, &reply(1, &[(1, 2, 1000)]), 1000, 500);
        // +4000 bytes over 2 seconds = 2000 B/s.
        let hot = collect_into(&mut stats, &reply(1, &[(1, 2, 5000)]), 3000, 500);
        assert_eq!(stats.rates[&(1, 2)], 2000);
        assert_eq!(hot.len(), 1);
        // Counter reset (switch reboot) doesn't underflow.
        let hot = collect_into(&mut stats, &reply(1, &[(1, 2, 100)]), 4000, 500);
        assert!(hot.is_empty());
        assert_eq!(stats.rates[&(1, 2)], 0);
    }
}
