//! Switch and link discovery.
//!
//! The real protocol would flood LLDP probes via `PacketOut`/`PacketIn`;
//! here a `discovery` app maintains per-switch adjacency from
//! [`LinkDiscovered`] events, which either an LLDP prober or (in the
//! simulator) the topology injector emits. Downstream apps (TE, routing)
//! consume the same [`LinkDiscovered`] broadcast.

use beehive_core::prelude::*;
use serde::{Deserialize, Serialize};

/// Name of the discovery app.
pub const DISCOVERY_APP: &str = "discovery";

/// A unidirectional link was discovered.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkDiscovered {
    /// Source switch.
    pub src: u64,
    /// Source port.
    pub src_port: u16,
    /// Destination switch.
    pub dst: u64,
}
impl_message!(LinkDiscovered);

/// Ask discovery for a switch's neighbors; it replies with [`Neighbors`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NeighborQuery {
    /// The switch.
    pub switch: u64,
}
impl_message!(NeighborQuery);

/// Reply to [`NeighborQuery`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Neighbors {
    /// The switch.
    pub switch: u64,
    /// `(neighbor, local port)` pairs.
    pub neighbors: Vec<(u64, u16)>,
}
impl_message!(Neighbors);

const ADJ: &str = "adjacency";

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct AdjEntry {
    neighbors: Vec<(u64, u16)>,
}

/// Builds the discovery app: per-switch adjacency cells (fully
/// distributable — one bee per switch).
pub fn discovery_app() -> App {
    App::builder(DISCOVERY_APP)
        .with::<LinkDiscovered>(
            "Learn",
            ADJ,
            |m| m.src.to_string(),
            |m, ctx| {
                let mut entry: AdjEntry = ctx.entry()?.unwrap_or_default();
                if !entry.neighbors.contains(&(m.dst, m.src_port)) {
                    entry.neighbors.push((m.dst, m.src_port));
                    entry.neighbors.sort();
                    ctx.put_entry(&entry)?;
                }
                Ok(())
            },
        )
        .with::<NeighborQuery>(
            "Answer",
            ADJ,
            |m| m.switch.to_string(),
            |m, ctx| {
                let entry: AdjEntry = ctx.entry()?.unwrap_or_default();
                ctx.emit(Neighbors {
                    switch: m.switch,
                    neighbors: entry.neighbors,
                });
                Ok(())
            },
        )
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

    #[test]
    fn links_accumulate_per_switch() {
        let mut hive = standalone();
        hive.install(discovery_app());
        hive.emit(LinkDiscovered {
            src: 1,
            src_port: 2,
            dst: 5,
        });
        hive.emit(LinkDiscovered {
            src: 1,
            src_port: 3,
            dst: 6,
        });
        hive.emit(LinkDiscovered {
            src: 1,
            src_port: 2,
            dst: 5,
        }); // dup
        hive.emit(LinkDiscovered {
            src: 2,
            src_port: 1,
            dst: 1,
        });
        hive.step_until_quiescent(1000);
        assert_eq!(hive.local_bee_count(DISCOVERY_APP), 2, "one bee per switch");
        let bees = hive.local_bees(DISCOVERY_APP);
        let total: usize = bees
            .iter()
            .map(|(b, _)| {
                hive.peek_state::<AdjEntry>(DISCOVERY_APP, *b, ADJ, "1")
                    .map(|e| e.neighbors.len())
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(total, 2, "switch 1 has two unique neighbors");
    }

    #[test]
    fn query_returns_neighbors() {
        let mut hive = standalone();
        hive.install(discovery_app());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        hive.install(
            App::builder("sink")
                .handle::<Neighbors>(
                    |m| Mapped::cell("x", m.switch.to_string()),
                    move |m, _| {
                        seen2.lock().push(m.clone());
                        Ok(())
                    },
                )
                .build(),
        );
        hive.emit(LinkDiscovered {
            src: 3,
            src_port: 1,
            dst: 9,
        });
        hive.emit(NeighborQuery { switch: 3 });
        hive.step_until_quiescent(1000);
        let replies = seen.lock().clone();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].neighbors, vec![(9, 1)]);
    }

    #[test]
    fn unknown_switch_reports_empty() {
        let mut hive = standalone();
        hive.install(discovery_app());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        hive.install(
            App::builder("sink")
                .handle::<Neighbors>(
                    |m| Mapped::cell("x", m.switch.to_string()),
                    move |m, _| {
                        seen2.lock().push(m.neighbors.len());
                        Ok(())
                    },
                )
                .build(),
        );
        hive.emit(NeighborQuery { switch: 42 });
        hive.step_until_quiescent(1000);
        assert_eq!(seen.lock().clone(), vec![0]);
    }
}
