//! Distributed routing (paper §4): "a distributed routing application can be
//! easily defined in Beehive by storing the RIBs on a prefix basis …
//! resulting in fine-grain cells that can be automatically placed throughout
//! the platform to scale."
//!
//! Two cooperating apps:
//!
//! * [`rib_app`] — the RIB: one cell per destination prefix; handles
//!   announcements/withdrawals and answers queries. Fully distributable.
//! * [`path_app`] — shortest-path computation over the discovered topology
//!   (whole-dict by necessity — graph algorithms need the whole graph); on
//!   request it computes a path and *announces* the result into the RIB,
//!   keeping the hot query path distributed.

use std::collections::{BTreeMap, BinaryHeap};

use beehive_core::prelude::*;
use serde::{Deserialize, Serialize};

use crate::discovery::LinkDiscovered;

/// Name of the RIB app.
pub const RIB_APP: &str = "routing.rib";
/// Name of the path-computation app.
pub const PATH_APP: &str = "routing.paths";

/// Announce a route for a prefix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteAnnounce {
    /// Destination prefix, e.g. `"10.1.0.0/16"`. Any string key works — the
    /// RIB shards by it.
    pub prefix: String,
    /// Next hop (switch/router id).
    pub next_hop: u64,
    /// Path cost.
    pub metric: u32,
    /// Announcing origin (for withdrawal bookkeeping).
    pub origin: u64,
}
impl_message!(RouteAnnounce);

/// Withdraw an origin's route for a prefix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteWithdraw {
    /// The prefix.
    pub prefix: String,
    /// The origin whose route is withdrawn.
    pub origin: u64,
}
impl_message!(RouteWithdraw);

/// Query the best route for a prefix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteQuery {
    /// The prefix.
    pub prefix: String,
}
impl_message!(RouteQuery);

/// Reply to [`RouteQuery`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteReply {
    /// The prefix.
    pub prefix: String,
    /// Best `(next_hop, metric)` if any route exists.
    pub best: Option<(u64, u32)>,
}
impl_message!(RouteReply);

/// Ask the path app for a shortest path; it announces the result into the
/// RIB under `prefix`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathRequest {
    /// Source switch.
    pub src: u64,
    /// Destination switch.
    pub dst: u64,
    /// RIB prefix to announce the result under.
    pub prefix: String,
}
impl_message!(PathRequest);

/// Emitted by the path app when a path was computed (also announced to RIB).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathComputed {
    /// Source.
    pub src: u64,
    /// Destination.
    pub dst: u64,
    /// The hops, inclusive; empty when unreachable.
    pub path: Vec<u64>,
}
impl_message!(PathComputed);

const RIB: &str = "rib";
const TOPO: &str = "topo";

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct RibEntry {
    /// origin → (next_hop, metric).
    routes: BTreeMap<u64, (u64, u32)>,
}

impl RibEntry {
    fn best(&self) -> Option<(u64, u32)> {
        self.routes.values().min_by_key(|(_, m)| *m).copied()
    }
}

/// Builds the per-prefix RIB app.
pub fn rib_app() -> App {
    App::builder(RIB_APP)
        .with::<RouteAnnounce>(
            "Announce",
            RIB,
            |m| m.prefix.clone(),
            |m, ctx| {
                ctx.update_entry(|entry: &mut RibEntry| {
                    entry.routes.insert(m.origin, (m.next_hop, m.metric));
                })
            },
        )
        .with::<RouteWithdraw>(
            "Withdraw",
            RIB,
            |m| m.prefix.clone(),
            |m, ctx| {
                let Some(mut entry) = ctx.entry::<RibEntry>()? else {
                    return Ok(());
                };
                entry.routes.remove(&m.origin);
                if entry.routes.is_empty() {
                    ctx.del_entry()?;
                    if ctx.keys(RIB).is_empty() {
                        // Last prefix of this colony withdrawn: garbage-
                        // collect the bee so fine-grained cells don't leak.
                        ctx.retire();
                    }
                } else {
                    ctx.put_entry(&entry)?;
                }
                Ok(())
            },
        )
        .with::<RouteQuery>(
            "Query",
            RIB,
            |m| m.prefix.clone(),
            |m, ctx| {
                let entry: RibEntry = ctx.entry()?.unwrap_or_default();
                ctx.emit(RouteReply {
                    prefix: m.prefix.clone(),
                    best: entry.best(),
                });
                Ok(())
            },
        )
        .build()
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Graph {
    /// src → [(dst, weight)]
    edges: BTreeMap<u64, Vec<(u64, u32)>>,
}

fn dijkstra(g: &Graph, src: u64, dst: u64) -> Option<Vec<u64>> {
    let mut dist: BTreeMap<u64, u32> = BTreeMap::new();
    let mut prev: BTreeMap<u64, u64> = BTreeMap::new();
    let mut heap: BinaryHeap<std::cmp::Reverse<(u32, u64)>> = BinaryHeap::new();
    dist.insert(src, 0);
    heap.push(std::cmp::Reverse((0, src)));
    while let Some(std::cmp::Reverse((d, node))) = heap.pop() {
        if node == dst {
            let mut path = vec![dst];
            let mut at = dst;
            while let Some(&p) = prev.get(&at) {
                path.push(p);
                at = p;
            }
            path.reverse();
            return Some(path);
        }
        if dist.get(&node).is_some_and(|&best| d > best) {
            continue;
        }
        for &(next, w) in g.edges.get(&node).into_iter().flatten() {
            let nd = d + w;
            if dist.get(&next).is_none_or(|&best| nd < best) {
                dist.insert(next, nd);
                prev.insert(next, node);
                heap.push(std::cmp::Reverse((nd, next)));
            }
        }
    }
    None
}

/// Builds the path-computation app (centralized by design — it needs the
/// whole graph; keep the *hot* path in [`rib_app`]).
pub fn path_app() -> App {
    App::builder(PATH_APP)
        .handle_whole::<LinkDiscovered>("Topo", &[TOPO], |m, ctx| {
            let mut g: Graph = ctx.get(TOPO, "graph")?.unwrap_or_default();
            let edges = g.edges.entry(m.src).or_default();
            if !edges.contains(&(m.dst, 1)) {
                edges.push((m.dst, 1));
                edges.sort();
            }
            ctx.put(TOPO, "graph", &g)
        })
        .handle_whole::<PathRequest>("Compute", &[TOPO], |m, ctx| {
            let g: Graph = ctx.get(TOPO, "graph")?.unwrap_or_default();
            let path = dijkstra(&g, m.src, m.dst).unwrap_or_default();
            if path.len() >= 2 {
                ctx.emit(RouteAnnounce {
                    prefix: m.prefix.clone(),
                    next_hop: path[1],
                    metric: (path.len() - 1) as u32,
                    origin: m.src,
                });
            }
            ctx.emit(PathComputed {
                src: m.src,
                dst: m.dst,
                path,
            });
            Ok(())
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_core::sync::Mutex;
    use std::sync::Arc;

    fn standalone() -> Hive {
        let mut cfg = HiveConfig::standalone(HiveId(1));
        cfg.tick_interval_ms = 0;
        Hive::new(
            cfg,
            Arc::new(SystemClock::new()),
            Box::new(Loopback::new(HiveId(1))),
        )
    }

    fn reply_sink(seen: Arc<Mutex<Vec<RouteReply>>>) -> App {
        App::builder("sink")
            .handle::<RouteReply>(
                |m| Mapped::cell("x", &m.prefix),
                move |m, _| {
                    seen.lock().push(m.clone());
                    Ok(())
                },
            )
            .build()
    }

    #[test]
    fn announce_then_query_returns_best_metric() {
        let mut hive = standalone();
        hive.install(rib_app());
        let seen = Arc::new(Mutex::new(Vec::new()));
        hive.install(reply_sink(seen.clone()));
        hive.emit(RouteAnnounce {
            prefix: "10.0.0.0/8".into(),
            next_hop: 5,
            metric: 3,
            origin: 1,
        });
        hive.emit(RouteAnnounce {
            prefix: "10.0.0.0/8".into(),
            next_hop: 9,
            metric: 1,
            origin: 2,
        });
        hive.emit(RouteQuery {
            prefix: "10.0.0.0/8".into(),
        });
        hive.step_until_quiescent(1000);
        let replies = seen.lock().clone();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].best, Some((9, 1)));
    }

    #[test]
    fn withdraw_removes_origin_route() {
        let mut hive = standalone();
        hive.install(rib_app());
        let seen = Arc::new(Mutex::new(Vec::new()));
        hive.install(reply_sink(seen.clone()));
        hive.emit(RouteAnnounce {
            prefix: "p".into(),
            next_hop: 5,
            metric: 1,
            origin: 1,
        });
        hive.emit(RouteAnnounce {
            prefix: "p".into(),
            next_hop: 9,
            metric: 2,
            origin: 2,
        });
        hive.emit(RouteWithdraw {
            prefix: "p".into(),
            origin: 1,
        });
        hive.emit(RouteQuery { prefix: "p".into() });
        hive.step_until_quiescent(1000);
        assert_eq!(seen.lock()[0].best, Some((9, 2)));
    }

    #[test]
    fn unknown_prefix_replies_none() {
        let mut hive = standalone();
        hive.install(rib_app());
        let seen = Arc::new(Mutex::new(Vec::new()));
        hive.install(reply_sink(seen.clone()));
        hive.emit(RouteQuery {
            prefix: "nope".into(),
        });
        hive.step_until_quiescent(1000);
        assert_eq!(seen.lock()[0].best, None);
    }

    #[test]
    fn full_withdrawal_retires_the_bee() {
        let mut hive = standalone();
        hive.install(rib_app());
        hive.emit(RouteAnnounce {
            prefix: "gone".into(),
            next_hop: 1,
            metric: 1,
            origin: 1,
        });
        hive.step_until_quiescent(1000);
        assert_eq!(hive.local_bee_count(RIB_APP), 1);
        hive.emit(RouteWithdraw {
            prefix: "gone".into(),
            origin: 1,
        });
        hive.step_until_quiescent(1000);
        assert_eq!(
            hive.local_bee_count(RIB_APP),
            0,
            "empty colony garbage-collected"
        );
        assert!(hive
            .registry_view()
            .owner(RIB_APP, &beehive_core::Cell::new("rib", "gone"))
            .is_none());
        // The prefix can come back: a fresh announce re-creates a bee.
        hive.emit(RouteAnnounce {
            prefix: "gone".into(),
            next_hop: 2,
            metric: 2,
            origin: 1,
        });
        hive.step_until_quiescent(1000);
        assert_eq!(hive.local_bee_count(RIB_APP), 1);
    }

    #[test]
    fn prefixes_shard_into_separate_bees() {
        let mut hive = standalone();
        hive.install(rib_app());
        for i in 0..8 {
            hive.emit(RouteAnnounce {
                prefix: format!("10.{i}.0.0/16"),
                next_hop: 1,
                metric: 1,
                origin: 1,
            });
        }
        hive.step_until_quiescent(1000);
        assert_eq!(hive.local_bee_count(RIB_APP), 8);
    }

    #[test]
    fn path_computation_announces_into_rib() {
        let mut hive = standalone();
        hive.install(rib_app());
        hive.install(path_app());
        let seen = Arc::new(Mutex::new(Vec::new()));
        hive.install(reply_sink(seen.clone()));
        // Line topology 1-2-3 (directed both ways).
        for (a, b) in [(1u64, 2u64), (2, 1), (2, 3), (3, 2)] {
            hive.emit(LinkDiscovered {
                src: a,
                src_port: 1,
                dst: b,
            });
        }
        hive.emit(PathRequest {
            src: 1,
            dst: 3,
            prefix: "dst3".into(),
        });
        hive.step_until_quiescent(1000); // let the announce land first
        hive.emit(RouteQuery {
            prefix: "dst3".into(),
        });
        hive.step_until_quiescent(1000);
        let replies = seen.lock().clone();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].best, Some((2, 2)), "next hop 2, metric 2");
    }

    #[test]
    fn unreachable_path_is_empty() {
        let mut hive = standalone();
        hive.install(path_app());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        hive.install(
            App::builder("pc-sink")
                .handle::<PathComputed>(
                    |m| Mapped::cell("x", m.src.to_string()),
                    move |m, _| {
                        seen2.lock().push(m.path.clone());
                        Ok(())
                    },
                )
                .build(),
        );
        hive.emit(LinkDiscovered {
            src: 1,
            src_port: 1,
            dst: 2,
        });
        hive.emit(PathRequest {
            src: 1,
            dst: 99,
            prefix: "x".into(),
        });
        hive.step_until_quiescent(1000);
        assert_eq!(seen.lock().clone(), vec![Vec::<u64>::new()]);
    }

    #[test]
    fn dijkstra_prefers_shorter_paths() {
        let mut g = Graph::default();
        // 1→2→4 (cost 2) vs 1→3→4 where 1→3 costs 5.
        g.edges.insert(1, vec![(2, 1), (3, 5)]);
        g.edges.insert(2, vec![(4, 1)]);
        g.edges.insert(3, vec![(4, 1)]);
        assert_eq!(dijkstra(&g, 1, 4), Some(vec![1, 2, 4]));
        assert_eq!(dijkstra(&g, 4, 1), None, "directed edges");
        assert_eq!(dijkstra(&g, 1, 1), Some(vec![1]));
    }
}
