//! Workload generation: the paper's "100 fixed-rate flows from each switch,
//! 10% of these flows have a rate more than a user-defined re-routing
//! threshold (δ)".

use beehive_raft::SeededRng;
use serde::{Deserialize, Serialize};

/// One fixed-rate flow pinned to a switch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// The switch carrying the flow.
    pub switch: u64,
    /// Source IPv4 (synthetic).
    pub nw_src: u32,
    /// Destination IPv4 (synthetic).
    pub nw_dst: u32,
    /// Bytes per second.
    pub rate_bytes_per_sec: u64,
    /// Whether the flow exceeds the re-routing threshold δ.
    pub elephant: bool,
}

impl FlowSpec {
    /// The flow's header as an exact OpenFlow match (for table lookups and
    /// counter accounting).
    pub fn header(&self) -> beehive_openflow::Match {
        beehive_openflow::Match {
            wildcards: 0,
            nw_src: self.nw_src,
            nw_dst: self.nw_dst,
            dl_type: 0x0800,
            ..Default::default()
        }
    }

    /// The wildcarded match a controller would install for this flow.
    pub fn rule(&self) -> beehive_openflow::Match {
        beehive_openflow::Match::nw_pair(self.nw_src, self.nw_dst)
    }
}

/// Parameters for [`generate_flows`].
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Flows per switch (paper: 100).
    pub flows_per_switch: usize,
    /// Fraction of flows above δ (paper: 0.1).
    pub elephant_fraction: f64,
    /// Rate of a mouse flow, B/s.
    pub mouse_rate: u64,
    /// Rate of an elephant flow, B/s (must exceed the app's δ).
    pub elephant_rate: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            flows_per_switch: 100,
            elephant_fraction: 0.1,
            mouse_rate: 1_000,
            elephant_rate: 100_000,
            seed: 0xF10E5,
        }
    }
}

/// Generates the per-switch flow population. Deterministic in `cfg.seed`;
/// exactly `⌈flows_per_switch × elephant_fraction⌉` elephants per switch.
pub fn generate_flows(switches: &[u64], cfg: &WorkloadConfig) -> Vec<FlowSpec> {
    let mut rng = SeededRng::seed_from_u64(cfg.seed);
    let elephants_per_switch =
        ((cfg.flows_per_switch as f64) * cfg.elephant_fraction).ceil() as usize;
    let mut flows = Vec::with_capacity(switches.len() * cfg.flows_per_switch);
    for &sw in switches {
        for i in 0..cfg.flows_per_switch {
            let elephant = i < elephants_per_switch;
            // Synthetic, unique per (switch, flow): 10.x.y.z style.
            let nw_src = 0x0A00_0000 | ((sw as u32 & 0xFFF) << 12) | (i as u32 & 0xFFF);
            let nw_dst = 0x0B00_0000 | rng.gen_range(0..0x00FF_FFFF);
            let jitter = rng.gen_range(90..=110);
            let base = if elephant {
                cfg.elephant_rate
            } else {
                cfg.mouse_rate
            };
            flows.push(FlowSpec {
                switch: sw,
                nw_src,
                nw_dst,
                rate_bytes_per_sec: base * jitter / 100,
                elephant,
            });
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_population_shape() {
        let switches: Vec<u64> = (1..=10).collect();
        let flows = generate_flows(&switches, &WorkloadConfig::default());
        assert_eq!(flows.len(), 1000);
        let elephants = flows.iter().filter(|f| f.elephant).count();
        assert_eq!(elephants, 100, "10% elephants");
        // Each switch carries exactly 100 flows.
        for sw in &switches {
            assert_eq!(flows.iter().filter(|f| f.switch == *sw).count(), 100);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let switches = vec![1, 2];
        let a = generate_flows(&switches, &WorkloadConfig::default());
        let b = generate_flows(&switches, &WorkloadConfig::default());
        assert_eq!(a, b);
        let c = generate_flows(
            &switches,
            &WorkloadConfig {
                seed: 99,
                ..Default::default()
            },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn elephant_rates_exceed_mouse_rates() {
        let flows = generate_flows(&[1], &WorkloadConfig::default());
        let min_elephant = flows
            .iter()
            .filter(|f| f.elephant)
            .map(|f| f.rate_bytes_per_sec)
            .min()
            .unwrap();
        let max_mouse = flows
            .iter()
            .filter(|f| !f.elephant)
            .map(|f| f.rate_bytes_per_sec)
            .max()
            .unwrap();
        assert!(min_elephant > max_mouse);
    }

    #[test]
    fn headers_are_unique_per_flow() {
        let flows = generate_flows(&[1, 2], &WorkloadConfig::default());
        let mut seen = std::collections::HashSet::new();
        for f in &flows {
            assert!(seen.insert((f.switch, f.nw_src)), "duplicate flow source");
        }
    }

    #[test]
    fn rule_covers_header() {
        let flows = generate_flows(&[1], &WorkloadConfig::default());
        for f in flows.iter().take(10) {
            assert!(f.rule().covers(&f.header()));
        }
    }
}
