//! A centralized policy (ACL) application — the paper's §4 "Centralized
//! Applications" use case: "a centralized application is a composition of
//! functions that require the whole application state in one physical
//! location … for such a function, Beehive guarantees that the whole state
//! — all cells of that application — are assigned to one bee."
//!
//! The policy table must be evaluated as a whole (rule priorities interact),
//! so every handler maps the `policy` dictionary whole. Beehive collocates
//! it on a single bee; and since apps never share state, the platform is
//! free to place this centralized app on whichever hive has room — "the
//! platform may place different centralized applications on different hives
//! to satisfy extensive resource requirements."

use beehive_core::prelude::*;
use beehive_openflow::driver::{InstallRule, PacketInEvent};
use beehive_openflow::switch::parse_macs;
use serde::{Deserialize, Serialize};

/// Name of the ACL app.
pub const ACL_APP: &str = "acl";

/// Add (or replace) a policy rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AddRule {
    /// Unique rule name.
    pub name: String,
    /// Higher evaluates first.
    pub priority: u16,
    /// Match on source MAC (None = any).
    pub src_mac: Option<[u8; 6]>,
    /// Match on destination MAC (None = any).
    pub dst_mac: Option<[u8; 6]>,
    /// Allow or deny.
    pub allow: bool,
}
impl_message!(AddRule);

/// Remove a rule by name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemoveRule {
    /// The rule to remove.
    pub name: String,
}
impl_message!(RemoveRule);

/// The verdict for an evaluated packet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AclVerdict {
    /// The switch that punted the packet.
    pub switch: u64,
    /// Whether the packet is allowed.
    pub allow: bool,
    /// Name of the deciding rule (None = default allow).
    pub rule: Option<String>,
}
impl_message!(AclVerdict);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Rule {
    priority: u16,
    src_mac: Option<[u8; 6]>,
    dst_mac: Option<[u8; 6]>,
    allow: bool,
}

const POLICY: &str = "policy";
/// Port used for deny rules (drop): OpenFlow has no explicit drop action in
/// our subset; an `InstallRule` with out_port 0 is treated as a drop by the
/// simulator convention.
pub const DROP_PORT: u16 = 0;

fn evaluate(
    ctx: &RcvCtx<'_>,
    src: [u8; 6],
    dst: [u8; 6],
) -> beehive_core::Result<(bool, Option<String>)> {
    let mut best: Option<(u16, String, bool)> = None;
    for name in ctx.keys(POLICY) {
        let Some(rule) = ctx.get::<Rule>(POLICY, &name)? else {
            continue;
        };
        let matches =
            rule.src_mac.is_none_or(|m| m == src) && rule.dst_mac.is_none_or(|m| m == dst);
        if matches && best.as_ref().is_none_or(|(p, _, _)| rule.priority > *p) {
            best = Some((rule.priority, name.clone(), rule.allow));
        }
    }
    Ok(match best {
        Some((_, name, allow)) => (allow, Some(name)),
        None => (true, None), // default allow
    })
}

/// Builds the centralized ACL app: whole-dict `policy`, one bee cluster-wide.
pub fn acl_app() -> App {
    App::builder(ACL_APP)
        .handle_whole::<AddRule>("AddRule", &[POLICY], |m, ctx| {
            ctx.put(
                POLICY,
                m.name.clone(),
                &Rule {
                    priority: m.priority,
                    src_mac: m.src_mac,
                    dst_mac: m.dst_mac,
                    allow: m.allow,
                },
            )
        })
        .handle_whole::<RemoveRule>("RemoveRule", &[POLICY], |m, ctx| {
            ctx.del(POLICY, &m.name);
            Ok(())
        })
        .handle_whole::<PacketInEvent>("Evaluate", &[POLICY], |m, ctx| {
            let Some((dst, src)) = parse_macs(&m.data) else {
                return Err("short packet".into());
            };
            let (allow, rule) = evaluate(ctx, src, dst)?;
            if !allow {
                // Program the deny on the punting switch.
                ctx.emit(InstallRule {
                    switch: m.switch,
                    match_: beehive_openflow::Match::dl_dst_exact(dst),
                    priority: 100,
                    out_port: DROP_PORT,
                });
            }
            ctx.emit(AclVerdict {
                switch: m.switch,
                allow,
                rule,
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
    use beehive_openflow::switch::encode_header_as_packet;
    use std::sync::Arc;

    fn mac(n: u8) -> [u8; 6] {
        [n; 6]
    }

    fn pkt(src: u8, dst: u8) -> Vec<u8> {
        encode_header_as_packet(&beehive_openflow::Match {
            dl_src: mac(src),
            dl_dst: mac(dst),
            ..Default::default()
        })
    }

    fn hive_with_acl() -> (Hive, Arc<Mutex<Vec<AclVerdict>>>) {
        let mut cfg = beehive_core::HiveConfig::standalone(HiveId(1));
        cfg.tick_interval_ms = 0;
        let mut hive = Hive::new(
            cfg,
            Arc::new(SystemClock::new()),
            Box::new(Loopback::new(HiveId(1))),
        );
        hive.install(acl_app());
        let verdicts = Arc::new(Mutex::new(Vec::new()));
        let v2 = verdicts.clone();
        hive.install(
            App::builder("sink")
                .handle::<AclVerdict>(
                    |m| Mapped::cell("v", m.switch.to_string()),
                    move |m, _| {
                        v2.lock().push(m.clone());
                        Ok(())
                    },
                )
                .build(),
        );
        (hive, verdicts)
    }

    #[test]
    fn acl_is_centralized_by_design() {
        let report = design_feedback(&acl_app());
        assert!(report.is_centralized());
        // One bee no matter how many rules/switches.
        let (mut hive, _v) = hive_with_acl();
        for i in 0..5 {
            hive.emit(AddRule {
                name: format!("r{i}"),
                priority: i,
                src_mac: None,
                dst_mac: Some(mac(i as u8)),
                allow: false,
            });
        }
        hive.step_until_quiescent(1000);
        assert_eq!(hive.local_bee_count(ACL_APP), 1);
    }

    #[test]
    fn default_is_allow() {
        let (mut hive, verdicts) = hive_with_acl();
        hive.emit(PacketInEvent {
            switch: 1,
            in_port: 1,
            data: pkt(1, 2),
        });
        hive.step_until_quiescent(1000);
        let v = verdicts.lock().clone();
        assert_eq!(v.len(), 1);
        assert!(v[0].allow);
        assert_eq!(v[0].rule, None);
    }

    #[test]
    fn deny_rule_blocks_and_programs_drop() {
        let (mut hive, verdicts) = hive_with_acl();
        let drops = Arc::new(Mutex::new(Vec::new()));
        let d2 = drops.clone();
        hive.install(
            App::builder("drop-sink")
                .handle::<InstallRule>(
                    |m| Mapped::cell("d", m.switch.to_string()),
                    move |m, _| {
                        d2.lock().push(m.out_port);
                        Ok(())
                    },
                )
                .build(),
        );
        hive.emit(AddRule {
            name: "block-2".into(),
            priority: 10,
            src_mac: None,
            dst_mac: Some(mac(2)),
            allow: false,
        });
        hive.emit(PacketInEvent {
            switch: 7,
            in_port: 1,
            data: pkt(1, 2),
        });
        hive.step_until_quiescent(1000);
        let v = verdicts.lock().clone();
        assert!(!v[0].allow);
        assert_eq!(v[0].rule.as_deref(), Some("block-2"));
        assert_eq!(drops.lock().clone(), vec![DROP_PORT]);
    }

    #[test]
    fn higher_priority_wins() {
        let (mut hive, verdicts) = hive_with_acl();
        hive.emit(AddRule {
            name: "deny-all-to-2".into(),
            priority: 1,
            src_mac: None,
            dst_mac: Some(mac(2)),
            allow: false,
        });
        hive.emit(AddRule {
            name: "allow-1-to-2".into(),
            priority: 50,
            src_mac: Some(mac(1)),
            dst_mac: Some(mac(2)),
            allow: true,
        });
        hive.emit(PacketInEvent {
            switch: 1,
            in_port: 1,
            data: pkt(1, 2),
        });
        hive.emit(PacketInEvent {
            switch: 1,
            in_port: 1,
            data: pkt(9, 2),
        });
        hive.step_until_quiescent(1000);
        let v = verdicts.lock().clone();
        assert!(v[0].allow, "specific allow overrides");
        assert_eq!(v[0].rule.as_deref(), Some("allow-1-to-2"));
        assert!(!v[1].allow, "others still denied");
    }

    #[test]
    fn remove_rule_restores_default() {
        let (mut hive, verdicts) = hive_with_acl();
        hive.emit(AddRule {
            name: "deny".into(),
            priority: 1,
            src_mac: None,
            dst_mac: Some(mac(2)),
            allow: false,
        });
        hive.emit(RemoveRule {
            name: "deny".into(),
        });
        hive.emit(PacketInEvent {
            switch: 1,
            in_port: 1,
            data: pkt(1, 2),
        });
        hive.step_until_quiescent(1000);
        assert!(verdicts.lock()[0].allow);
    }
}
