//! The Figure-4 experiment: the paper's §5 evaluation, end to end.
//!
//! "We have simulated a cluster of 40 controllers and 400 switches in a
//! simple tree topology. We initiate 100 fixed-rate flows from each switch,
//! and instrument the TE application. Here, 10% of these flows have a rate
//! more than a user-defined re-routing threshold (i.e., δ in Figure 2)."

use std::collections::BTreeMap;
use std::sync::Arc;

use beehive_core::optimizer::OptimizerConfig;
use beehive_core::{collector_app, optimizer_app, Cell, Clock, FrameKind, HiveId};
use beehive_openflow::driver::{driver_app, DRIVER_APP};
use beehive_sim::{
    generate_flows, ClusterConfig, SimCluster, SwitchFleet, Topology, WorkloadConfig,
};

use beehive_apps::te::{
    decoupled_te_apps, naive_te_app, TeConfig, NAIVE_TE_APP, TE_COLLECT_APP, TE_ROUTE_APP,
};

pub mod report;

/// Which TE design runs (the paper's three configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeVariant {
    /// Figure 4a/4d: the naive design — `Route` maps whole dictionaries, the
    /// whole app centralizes on one bee.
    Naive,
    /// Figure 4b/4e: `Route` decoupled behind aggregated `MatrixUpdate`s;
    /// collection runs next to each switch's master hive.
    Decoupled,
    /// Figure 4c/4f: decoupled design, but all cells artificially pinned to
    /// hive 1 at start; the runtime optimizer migrates the bees next to
    /// their switches' drivers during the run.
    Optimized,
}

/// Experiment parameters. Defaults reproduce the paper's setup.
#[derive(Debug, Clone)]
pub struct Figure4Config {
    /// Which design to run.
    pub variant: TeVariant,
    /// Number of hives (paper: 40).
    pub hives: usize,
    /// Registry Raft voters (first k hives).
    pub voters: usize,
    /// Tree fanout (7 with ~400 target gives exactly 400 switches).
    pub fanout: u32,
    /// Minimum number of switches (paper: 400).
    pub switches: usize,
    /// Flows per switch (paper: 100).
    pub flows_per_switch: usize,
    /// Elephant fraction (paper: 10%).
    pub elephant_fraction: f64,
    /// Virtual seconds of measurement.
    pub seconds: u64,
    /// Re-routing threshold δ (B/s).
    pub delta: u64,
    /// Optimizer cadence: run every N ticks (Optimized variant).
    pub optimize_every: u64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Figure4Config {
    fn default() -> Self {
        Figure4Config {
            variant: TeVariant::Naive,
            hives: 40,
            voters: 5,
            fanout: 7,
            switches: 400,
            flows_per_switch: 100,
            elephant_fraction: 0.1,
            seconds: 60,
            delta: 50_000,
            optimize_every: 5,
            seed: 0xBEE,
        }
    }
}

impl Figure4Config {
    /// A scaled-down configuration for tests and smoke runs.
    pub fn small(variant: TeVariant) -> Self {
        Figure4Config {
            variant,
            hives: 5,
            voters: 3,
            fanout: 3,
            switches: 13,
            flows_per_switch: 10,
            seconds: 20,
            ..Default::default()
        }
    }
}

/// Everything the experiment measures.
#[derive(Debug, Clone)]
pub struct Figure4Result {
    /// Hive ids, in matrix order.
    pub hives: Vec<HiveId>,
    /// Figure 4a–c: bee-to-bee message matrix `[src][dst]` (includes the
    /// diagonal — locally processed messages).
    pub msg_matrix: Vec<Vec<u64>>,
    /// Figure 4d–f: per-second control-channel bytes (App + Control frames).
    pub bw_series: Vec<(u64, u64)>,
    /// Same, broken out by frame kind: (second, app, control, raft).
    pub bw_by_kind: Vec<(u64, u64, u64, u64)>,
    /// Share of off-diagonal messages touching the busiest hive.
    pub hot_hive: Option<(HiveId, f64)>,
    /// Fraction of messages processed locally (the diagonal mass).
    pub locality: f64,
    /// Bees per hive for the TE collection app at the end.
    pub te_bees_per_hive: BTreeMap<u32, usize>,
    /// Total migrations that completed during the run.
    pub migrations: u64,
    /// Design feedback for the TE app(s).
    pub feedback: Vec<String>,
    /// Total inter-hive bytes (App + Control).
    pub total_bytes: u64,
}

impl Figure4Result {
    /// Peak of the bandwidth series (B/s).
    pub fn peak_bw(&self) -> u64 {
        self.bw_series.iter().map(|&(_, b)| b).max().unwrap_or(0)
    }

    /// Mean bandwidth over the steady tail (last quarter of the run), B/s.
    pub fn steady_bw(&self) -> u64 {
        let n = self.bw_series.len();
        if n == 0 {
            return 0;
        }
        let tail = &self.bw_series[n - (n / 4).max(1)..];
        tail.iter().map(|&(_, b)| b).sum::<u64>() / tail.len() as u64
    }
}

/// Runs the experiment.
pub fn run_figure4(cfg: &Figure4Config) -> Figure4Result {
    let topo = Topology::tree_with_about(cfg.switches, cfg.fanout);
    let cluster_cfg = ClusterConfig {
        hives: cfg.hives,
        voters: cfg.voters.min(cfg.hives),
        ..ClusterConfig::default()
    };

    // Build the cluster first (apps are installed below, once the fleet
    // exists — the driver needs the fleet as its SwitchIo).
    let mut cluster = SimCluster::new(cluster_cfg, |_h| {});

    let masters = topo.assign_masters(&cluster.ids());
    let handles: Vec<_> = cluster
        .ids()
        .iter()
        .map(|&id| cluster.hive(id).handle())
        .collect();
    let fleet = Arc::new(SwitchFleet::new(
        topo.switches.iter().map(|s| (s.dpid, s.ports)),
        masters,
        handles,
    ));

    // Install the applications on every hive.
    let te_cfg = TeConfig {
        delta_bytes_per_sec: cfg.delta,
    };
    let mut feedback = Vec::new();
    for id in cluster.ids() {
        let hive = cluster.hive_mut(id);
        hive.install(driver_app(fleet.clone()));
        match cfg.variant {
            TeVariant::Naive => {
                let app = naive_te_app(te_cfg);
                if id.0 == 1 {
                    feedback.push(beehive_core::feedback::design_feedback(&app).to_string());
                }
                hive.install(app);
            }
            TeVariant::Decoupled | TeVariant::Optimized => {
                let (collect, route) = decoupled_te_apps(te_cfg);
                if id.0 == 1 {
                    feedback.push(beehive_core::feedback::design_feedback(&collect).to_string());
                    feedback.push(beehive_core::feedback::design_feedback(&route).to_string());
                }
                hive.install(collect);
                hive.install(route);
            }
        }
        if cfg.variant == TeVariant::Optimized {
            let instr = hive.instrumentation();
            hive.install(collector_app(instr));
            hive.install(optimizer_app(
                OptimizerConfig {
                    min_messages: 5,
                    frozen_apps: vec![DRIVER_APP.to_string()],
                    ..Default::default()
                },
                cfg.optimize_every,
            ));
        }
    }

    // Bring up the registry.
    cluster.elect_registry(120_000).expect("registry leader");

    // The paper's optimization demo: "we artificially assign the cells of
    // all switches to the bees on the first hive".
    if cfg.variant == TeVariant::Optimized {
        let cells: Vec<Cell> = topo
            .dpids()
            .iter()
            .map(|d| Cell::new("S", d.to_string()))
            .collect();
        for cell in cells {
            cluster
                .hive_mut(HiveId(1))
                .preclaim(TE_COLLECT_APP, vec![cell]);
        }
        let fleet2 = fleet.clone();
        cluster.advance_with(2_000, 100, || fleet2.pump());
    }

    // OpenFlow handshakes; default routes; settle.
    fleet.connect_all();
    {
        let fleet2 = fleet.clone();
        cluster.advance_with(3_000, 100, || fleet2.pump());
    }

    let flows = generate_flows(
        &topo.dpids(),
        &WorkloadConfig {
            flows_per_switch: cfg.flows_per_switch,
            elephant_fraction: cfg.elephant_fraction,
            seed: cfg.seed,
            ..Default::default()
        },
    );
    fleet.install_default_routes(&flows);

    // Discard setup traffic: measurement starts now.
    cluster.fabric.reset_matrix();
    let measured_from = cluster.clock.now_ms();

    // Measurement loop: one virtual second at a time.
    for _sec in 0..cfg.seconds {
        fleet.advance_traffic(&flows, 1);
        let fleet2 = fleet.clone();
        cluster.advance_with(1_000, 100, || fleet2.pump());
    }

    // ----- harvest -----
    let hives = cluster.ids();
    let n = hives.len();

    // Bee-message matrix summed over every hive's instrumentation.
    let mut msg_matrix = vec![vec![0u64; n]; n];
    for id in &hives {
        let instr = cluster.hive(*id).instrumentation();
        let instr = instr.lock();
        for (&(src, dst), &count) in &instr.msg_matrix {
            if src >= 1 && dst >= 1 && (src as usize) <= n && (dst as usize) <= n {
                msg_matrix[(src - 1) as usize][(dst - 1) as usize] += count;
            }
        }
    }
    let total_msgs: u64 = msg_matrix.iter().flatten().sum();
    let diagonal: u64 = (0..n).map(|i| msg_matrix[i][i]).sum();
    let locality = if total_msgs == 0 {
        0.0
    } else {
        diagonal as f64 / total_msgs as f64
    };

    // Hot hive over off-diagonal messages.
    let mut hot_hive = None;
    let off_total: u64 = total_msgs - diagonal;
    if off_total > 0 {
        let mut best = (HiveId(1), 0u64);
        for (i, &h) in hives.iter().enumerate() {
            let touched: u64 = (0..n)
                .map(|j| {
                    if j != i {
                        msg_matrix[i][j] + msg_matrix[j][i]
                    } else {
                        0
                    }
                })
                .sum();
            if touched > best.1 {
                best = (h, touched);
            }
        }
        hot_hive = Some((best.0, best.1 as f64 / (off_total * 2) as f64 * 2.0));
    }

    // Every second from the reset to the run's end, quiet ones included.
    let matrix = cluster.matrix();
    let window = measured_from..cluster.clock.now_ms();
    let series = |kinds: &[FrameKind]| matrix.series(kinds, window.clone());
    let bw_series = series(&[FrameKind::App, FrameKind::Control]);
    let bw_by_kind = bw_series
        .iter()
        .zip(series(&[FrameKind::App]))
        .zip(series(&[FrameKind::Control]))
        .zip(series(&[FrameKind::Raft]))
        .map(|(((&(t, _), (_, app)), (_, control)), (_, raft))| (t, app, control, raft))
        .collect();

    let te_app = match cfg.variant {
        TeVariant::Naive => NAIVE_TE_APP,
        _ => TE_COLLECT_APP,
    };
    let te_bees_per_hive: BTreeMap<u32, usize> = hives
        .iter()
        .map(|&h| (h.0, cluster.hive(h).local_bee_count(te_app)))
        .filter(|&(_, c)| c > 0)
        .collect();
    let migrations: u64 = hives
        .iter()
        .map(|&h| cluster.hive(h).counters().migrations_in)
        .sum();

    let _ = TE_ROUTE_APP; // referenced for docs completeness

    Figure4Result {
        hives,
        msg_matrix,
        bw_series,
        bw_by_kind,
        hot_hive,
        locality,
        te_bees_per_hive,
        migrations,
        feedback,
        total_bytes: matrix.total(&[FrameKind::App, FrameKind::Control]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_naive_centralizes() {
        let r = run_figure4(&Figure4Config::small(TeVariant::Naive));
        // One TE bee in the whole cluster.
        assert_eq!(r.te_bees_per_hive.values().sum::<usize>(), 1);
        // Most off-diagonal traffic touches one hive.
        let (_, share) = r.hot_hive.expect("cross-hive traffic exists");
        assert!(
            share > 0.8,
            "naive TE should centralize, hot share = {share}"
        );
    }

    #[test]
    fn small_decoupled_localizes() {
        let r = run_figure4(&Figure4Config::small(TeVariant::Decoupled));
        // Collection bees spread across hives.
        assert!(
            r.te_bees_per_hive.len() > 1,
            "bees on multiple hives: {:?}",
            r.te_bees_per_hive
        );
        // Most messages are processed locally.
        assert!(
            r.locality > 0.7,
            "decoupled TE should be local, locality = {}",
            r.locality
        );
    }

    #[test]
    fn small_optimized_migrates_and_localizes() {
        let r = run_figure4(&Figure4Config::small(TeVariant::Optimized));
        assert!(r.migrations > 0, "optimizer should have migrated bees");
        // After migration, collection bees are spread out again.
        assert!(
            r.te_bees_per_hive.len() > 1,
            "bees should leave hive 1: {:?}",
            r.te_bees_per_hive
        );
    }
}
