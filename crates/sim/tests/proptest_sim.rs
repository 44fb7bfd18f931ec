//! Property tests for the simulator substrate: tree topologies are
//! well-formed and connected, BFS paths are valid walks, master assignment
//! is total and balanced, and workload generation matches its spec.

use beehive_core::HiveId;
use beehive_raft::prop::for_all;
use beehive_sim::{generate_flows, Topology, WorkloadConfig};

/// Cases per property.
const CASES: u64 = 256;

#[test]
fn trees_are_well_formed() {
    for_all(
        CASES,
        |g| (g.range(1u32..5), g.range(1u32..5)),
        |(levels, fanout)| {
            let t = Topology::tree(levels, fanout);
            // Expected size: geometric series.
            let mut expect = 0u64;
            let mut level_count = 1u64;
            for _ in 0..levels {
                expect += level_count;
                level_count *= fanout as u64;
            }
            assert_eq!(t.len() as u64, expect);
            // A tree has n-1 links.
            assert_eq!(t.links.len(), t.len() - 1);
            // Dpids are 1..=n with no duplicates.
            let mut dpids = t.dpids();
            dpids.sort_unstable();
            assert_eq!(dpids, (1..=t.len() as u64).collect::<Vec<_>>());
        },
    );
}

#[test]
fn trees_are_connected_and_paths_valid() {
    for_all(
        CASES,
        |g| (g.range(2u32..5), g.range(1u32..4), g.range::<u64>(..)),
        |(levels, fanout, seed)| {
            let t = Topology::tree(levels, fanout);
            let adj = t.adjacency();
            let dpids = t.dpids();
            // Pick a pseudo-random pair.
            let a = dpids[(seed as usize) % dpids.len()];
            let b = dpids[(seed as usize / 7 + 3) % dpids.len()];
            let path = t.path(a, b).expect("trees are connected");
            assert_eq!(*path.first().unwrap(), a);
            assert_eq!(*path.last().unwrap(), b);
            // Every hop is a real edge.
            for w in path.windows(2) {
                assert!(
                    adj[&w[0]].iter().any(|&(n, _)| n == w[1]),
                    "hop {}->{} is not a link",
                    w[0],
                    w[1]
                );
            }
            // No vertex repeats (shortest path in a tree is simple).
            let set: std::collections::BTreeSet<_> = path.iter().collect();
            assert_eq!(set.len(), path.len());
        },
    );
}

#[test]
fn bfs_path_length_is_minimal_in_trees() {
    for_all(
        CASES,
        |g| (g.range(2u32..4), g.range(2u32..4)),
        |(levels, fanout)| {
            // In a tree the path is unique, so BFS must find exactly it; check
            // symmetric lengths.
            let t = Topology::tree(levels, fanout);
            let edges = t.edges();
            for (i, &a) in edges.iter().enumerate().take(4) {
                let b = edges[(i + 1) % edges.len()];
                let ab = t.path(a, b).unwrap().len();
                let ba = t.path(b, a).unwrap().len();
                assert_eq!(ab, ba);
            }
        },
    );
}

#[test]
fn master_assignment_is_total_and_balanced() {
    for_all(
        CASES,
        |g| (g.range(1u32..5), g.range(1u32..4), g.range(1u32..10)),
        |(levels, fanout, hives)| {
            let t = Topology::tree(levels, fanout);
            let hive_ids: Vec<HiveId> = (1..=hives).map(HiveId).collect();
            let masters = t.assign_masters(&hive_ids);
            assert_eq!(masters.len(), t.len(), "every switch has a master");
            let mut counts = std::collections::BTreeMap::new();
            for h in masters.values() {
                *counts.entry(h.0).or_insert(0usize) += 1;
            }
            let max = counts.values().copied().max().unwrap_or(0);
            let min = counts.values().copied().min().unwrap_or(0);
            assert!(max - min <= 1, "round robin is balanced: {:?}", counts);
        },
    );
}

#[test]
fn workload_matches_spec() {
    for_all(
        CASES,
        |g| {
            (
                g.range(1usize..20),
                g.range(1usize..50),
                g.range(0u8..=100),
                g.range::<u64>(..),
            )
        },
        |(switches, per_switch, elephant_pct, seed)| {
            let dpids: Vec<u64> = (1..=switches as u64).collect();
            let cfg = WorkloadConfig {
                flows_per_switch: per_switch,
                elephant_fraction: elephant_pct as f64 / 100.0,
                seed,
                ..Default::default()
            };
            let flows = generate_flows(&dpids, &cfg);
            assert_eq!(flows.len(), switches * per_switch);
            let expected_elephants =
                ((per_switch as f64) * (elephant_pct as f64 / 100.0)).ceil() as usize;
            for d in &dpids {
                let mine: Vec<_> = flows.iter().filter(|f| f.switch == *d).collect();
                assert_eq!(mine.len(), per_switch);
                let elephants = mine.iter().filter(|f| f.elephant).count();
                assert_eq!(elephants, expected_elephants.min(per_switch));
            }
            // Rules always cover their own headers.
            for f in flows.iter().take(20) {
                assert!(f.rule().covers(&f.header()));
            }
        },
    );
}
