//! ONIX NIB emulation (paper §4): "NIB is basically an abstract graph that
//! represents networking elements and their interlinking. To process a
//! message in a NIB manager, we only need the state of a particular node.
//! As such, each node would be equivalent to a cell managed by a single
//! bee."

use std::collections::BTreeMap;

use beehive_core::prelude::*;
use serde::{Deserialize, Serialize};

/// Name of the NIB app.
pub const NIB_APP: &str = "nib";

/// Kinds of network entities a NIB node can represent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A switch.
    Switch,
    /// A port.
    Port,
    /// A host.
    Host,
    /// A link endpoint pair.
    Link,
}

/// Create or update a node's attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeUpdate {
    /// Node id (unique across kinds).
    pub id: String,
    /// What the node is.
    pub kind: NodeKind,
    /// Attribute updates (merged into existing attributes).
    pub attrs: BTreeMap<String, String>,
}
impl_message!(NodeUpdate);

/// Delete a node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeDelete {
    /// Node id.
    pub id: String,
}
impl_message!(NodeDelete);

/// Add a directed edge `from → to`. Handled by `from`'s bee (the paper:
/// "adding an outgoing link … on a particular node will be handled by the
/// node's bee").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeAdd {
    /// Source node.
    pub from: String,
    /// Target node.
    pub to: String,
}
impl_message!(EdgeAdd);

/// Remove a directed edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeDel {
    /// Source node.
    pub from: String,
    /// Target node.
    pub to: String,
}
impl_message!(EdgeDel);

/// Query a node (attributes + outgoing edges).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeQuery {
    /// Node id.
    pub id: String,
}
impl_message!(NodeQuery);

/// Reply to [`NodeQuery`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeReply {
    /// Node id.
    pub id: String,
    /// The node, if it exists.
    pub node: Option<NibNode>,
}
impl_message!(NodeReply);

/// A stored NIB node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NibNode {
    /// Kind.
    pub kind: NodeKind,
    /// Attributes.
    pub attrs: BTreeMap<String, String>,
    /// Outgoing edges.
    pub out_edges: Vec<String>,
}

const NODES: &str = "nodes";

/// Builds the NIB app: one cell — one bee — per graph node.
pub fn nib_app() -> App {
    App::builder(NIB_APP)
        .with::<NodeUpdate>(
            "Update",
            NODES,
            |m| m.id.clone(),
            |m, ctx| {
                let mut node: NibNode = ctx.entry()?.unwrap_or(NibNode {
                    kind: m.kind,
                    attrs: BTreeMap::new(),
                    out_edges: vec![],
                });
                node.kind = m.kind;
                node.attrs.extend(m.attrs.clone());
                ctx.put_entry(&node)
            },
        )
        .with::<NodeDelete>("Delete", NODES, |m| m.id.clone(), |_m, ctx| ctx.del_entry())
        .with::<EdgeAdd>(
            "EdgeAdd",
            NODES,
            |m| m.from.clone(),
            |m, ctx| {
                let Some(mut node) = ctx.entry::<NibNode>()? else {
                    return Err(format!("edge from unknown node {}", m.from).into());
                };
                if !node.out_edges.contains(&m.to) {
                    node.out_edges.push(m.to.clone());
                    node.out_edges.sort();
                    ctx.put_entry(&node)?;
                }
                Ok(())
            },
        )
        .with::<EdgeDel>(
            "EdgeDel",
            NODES,
            |m| m.from.clone(),
            |m, ctx| {
                if let Some(mut node) = ctx.entry::<NibNode>()? {
                    node.out_edges.retain(|e| e != &m.to);
                    ctx.put_entry(&node)?;
                }
                Ok(())
            },
        )
        .with::<NodeQuery>(
            "Query",
            NODES,
            |m| m.id.clone(),
            |m, ctx| {
                let node = ctx.entry::<NibNode>()?;
                ctx.emit(NodeReply {
                    id: m.id.clone(),
                    node,
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

    fn with_sink() -> (Hive, Arc<Mutex<Vec<NodeReply>>>) {
        let mut hive = standalone();
        hive.install(nib_app());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        hive.install(
            App::builder("sink")
                .handle::<NodeReply>(
                    |m| Mapped::cell("x", &m.id),
                    move |m, _| {
                        s.lock().push(m.clone());
                        Ok(())
                    },
                )
                .build(),
        );
        (hive, seen)
    }

    fn attrs(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn update_and_query_node() {
        let (mut hive, seen) = with_sink();
        hive.emit(NodeUpdate {
            id: "sw1".into(),
            kind: NodeKind::Switch,
            attrs: attrs(&[("dpid", "1")]),
        });
        hive.emit(NodeUpdate {
            id: "sw1".into(),
            kind: NodeKind::Switch,
            attrs: attrs(&[("name", "edge-1")]),
        });
        hive.emit(NodeQuery { id: "sw1".into() });
        hive.step_until_quiescent(1000);
        let replies = seen.lock().clone();
        let node = replies[0].node.clone().unwrap();
        assert_eq!(node.attrs["dpid"], "1");
        assert_eq!(node.attrs["name"], "edge-1", "attrs merge across updates");
    }

    #[test]
    fn edges_live_on_the_source_node() {
        let (mut hive, seen) = with_sink();
        hive.emit(NodeUpdate {
            id: "sw1".into(),
            kind: NodeKind::Switch,
            attrs: attrs(&[]),
        });
        hive.emit(EdgeAdd {
            from: "sw1".into(),
            to: "sw2".into(),
        });
        hive.emit(EdgeAdd {
            from: "sw1".into(),
            to: "sw3".into(),
        });
        hive.emit(EdgeAdd {
            from: "sw1".into(),
            to: "sw2".into(),
        }); // dup
        hive.emit(NodeQuery { id: "sw1".into() });
        hive.step_until_quiescent(1000);
        let node = seen.lock()[0].node.clone().unwrap();
        assert_eq!(node.out_edges, vec!["sw2".to_string(), "sw3".to_string()]);
    }

    #[test]
    fn edge_to_unknown_source_errors() {
        let (mut hive, _seen) = with_sink();
        hive.emit(EdgeAdd {
            from: "ghost".into(),
            to: "sw2".into(),
        });
        hive.step_until_quiescent(1000);
        assert_eq!(hive.counters().handler_errors, 1);
    }

    #[test]
    fn delete_then_query_returns_none() {
        let (mut hive, seen) = with_sink();
        hive.emit(NodeUpdate {
            id: "h1".into(),
            kind: NodeKind::Host,
            attrs: attrs(&[]),
        });
        hive.emit(NodeDelete { id: "h1".into() });
        hive.emit(NodeQuery { id: "h1".into() });
        hive.step_until_quiescent(1000);
        assert_eq!(seen.lock()[0].node, None);
    }

    #[test]
    fn nodes_shard_one_bee_each() {
        let (mut hive, _seen) = with_sink();
        for i in 0..6 {
            hive.emit(NodeUpdate {
                id: format!("n{i}"),
                kind: NodeKind::Port,
                attrs: attrs(&[]),
            });
        }
        hive.step_until_quiescent(1000);
        assert_eq!(hive.local_bee_count(NIB_APP), 6);
    }
}
