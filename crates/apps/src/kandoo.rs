//! Kandoo emulation (paper §4): Kandoo's two tiers map directly onto
//! Beehive. The **local** application (here: elephant-flow detection, the
//! example from the Kandoo paper) uses per-switch cells, so Beehive places
//! one bee per switch next to its master hive — no deliberate placement
//! needed. The **root** application receives rare, aggregated
//! [`ElephantDetected`] events and reroutes centrally.
//!
//! Compared to Kandoo itself, Beehive *infers* this placement instead of
//! having the developer assign controllers (paper: "network programmers do
//! not deliberately design for a specific placement").

use beehive_core::prelude::*;
use beehive_openflow::driver::{InstallRule, StatReply};
use serde::{Deserialize, Serialize};

/// Name of the local (per-switch) detection app.
pub const KANDOO_LOCAL_APP: &str = "kandoo.local";
/// Name of the root (centralized) app.
pub const KANDOO_ROOT_APP: &str = "kandoo.root";

/// A flow crossed the elephant threshold on some switch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElephantDetected {
    /// Observing switch.
    pub switch: u64,
    /// Flow source.
    pub nw_src: u32,
    /// Flow destination.
    pub nw_dst: u32,
    /// Cumulative bytes at detection.
    pub bytes: u64,
}
impl_message!(ElephantDetected);

const SEEN: &str = "seen";
const ROOT: &str = "root";

/// Builds the local app: watches [`StatReply`]s per switch and fires
/// [`ElephantDetected`] the first time a flow exceeds `threshold_bytes`.
pub fn kandoo_local_app(threshold_bytes: u64) -> App {
    App::builder(KANDOO_LOCAL_APP)
        .with::<StatReply>(
            "AppDetect",
            SEEN,
            |m| m.switch.to_string(),
            move |m, ctx| {
                let mut reported: Vec<(u32, u32)> = ctx.entry()?.unwrap_or_default();
                for f in &m.flows {
                    let id = (f.nw_src, f.nw_dst);
                    if f.bytes > threshold_bytes && !reported.contains(&id) {
                        reported.push(id);
                        ctx.emit(ElephantDetected {
                            switch: m.switch,
                            nw_src: f.nw_src,
                            nw_dst: f.nw_dst,
                            bytes: f.bytes,
                        });
                    }
                }
                ctx.put_entry(&reported)
            },
        )
        .build()
}

/// Builds the root app: a centralized view of all elephants that reroutes
/// each (demonstrating the rare-event escalation path).
pub fn kandoo_root_app() -> App {
    App::builder(KANDOO_ROOT_APP)
        .handle_whole::<ElephantDetected>("AppReroute", &[ROOT], |m, ctx| {
            let key = format!("{}:{}:{}", m.switch, m.nw_src, m.nw_dst);
            if ctx.contains(ROOT, &key) {
                return Ok(());
            }
            ctx.put(ROOT, key, &m.bytes)?;
            ctx.emit(InstallRule {
                switch: m.switch,
                match_: beehive_openflow::Match::nw_pair(m.nw_src, m.nw_dst),
                priority: 30,
                out_port: 3,
            });
            Ok(())
        })
        .build()
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
        cfg.tick_interval_ms = 0;
        Hive::new(
            cfg,
            Arc::new(SystemClock::new()),
            Box::new(Loopback::new(HiveId(1))),
        )
    }

    fn reply(switch: u64, bytes: u64) -> StatReply {
        StatReply {
            switch,
            flows: vec![FlowStat {
                nw_src: 1,
                nw_dst: 2,
                packets: 1,
                bytes,
                duration_sec: 1,
            }],
        }
    }

    #[test]
    fn local_detects_once_per_flow() {
        let mut hive = standalone();
        hive.install(kandoo_local_app(1000));
        let seen = Arc::new(Mutex::new(0usize));
        let s = seen.clone();
        hive.install(
            App::builder("sink")
                .handle::<ElephantDetected>(
                    |m| Mapped::cell("x", m.switch.to_string()),
                    move |_m, _| {
                        *s.lock() += 1;
                        Ok(())
                    },
                )
                .build(),
        );
        hive.emit(reply(1, 500)); // below threshold
        hive.emit(reply(1, 5000)); // crosses
        hive.emit(reply(1, 9000)); // already reported
        hive.step_until_quiescent(1000);
        assert_eq!(*seen.lock(), 1);
    }

    #[test]
    fn root_reroutes_each_elephant_once() {
        let mut hive = standalone();
        hive.install(kandoo_root_app());
        let rules = Arc::new(Mutex::new(Vec::new()));
        let r = rules.clone();
        hive.install(
            App::builder("sink")
                .handle::<InstallRule>(
                    |m| Mapped::cell("x", m.switch.to_string()),
                    move |m, _| {
                        r.lock().push(m.clone());
                        Ok(())
                    },
                )
                .build(),
        );
        let e = ElephantDetected {
            switch: 4,
            nw_src: 1,
            nw_dst: 2,
            bytes: 9000,
        };
        hive.emit(e.clone());
        hive.emit(e);
        hive.emit(ElephantDetected {
            switch: 4,
            nw_src: 3,
            nw_dst: 4,
            bytes: 9000,
        });
        hive.step_until_quiescent(1000);
        assert_eq!(rules.lock().len(), 2);
    }

    #[test]
    fn two_tier_pipeline_end_to_end() {
        let mut hive = standalone();
        hive.install(kandoo_local_app(1000));
        hive.install(kandoo_root_app());
        let rules = Arc::new(Mutex::new(Vec::new()));
        let r = rules.clone();
        hive.install(
            App::builder("sink")
                .handle::<InstallRule>(
                    |m| Mapped::cell("x", m.switch.to_string()),
                    move |m, _| {
                        r.lock().push(m.switch);
                        Ok(())
                    },
                )
                .build(),
        );
        for sw in 1..=3u64 {
            hive.emit(reply(sw, 50_000));
        }
        hive.step_until_quiescent(1000);
        let mut switches = rules.lock().clone();
        switches.sort();
        assert_eq!(switches, vec![1, 2, 3]);
        // Local app sharded per switch; root centralized on one bee.
        assert_eq!(hive.local_bee_count(KANDOO_LOCAL_APP), 3);
        assert_eq!(hive.local_bee_count(KANDOO_ROOT_APP), 1);
    }

    #[test]
    fn design_feedback_matches_kandoo_tiers() {
        assert!(!design_feedback(&kandoo_local_app(1)).is_centralized());
        assert!(design_feedback(&kandoo_root_app()).is_centralized());
    }
}
