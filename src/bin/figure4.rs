//! Regenerates the Beehive HotNets'14 paper's Figure 4.
//!
//! ```text
//! figure4 [--panel a|b|c|d|e|f|all] [--small] [--seconds N] [--hives N]
//!         [--switches N] [--out DIR] [--check naive-collocation|optimized-equivalence]
//! ```
//!
//! Panels a/d run the naive TE, b/e the decoupled TE, c/f the decoupled TE
//! with all cells pinned to hive 1 and the runtime optimizer enabled.
//! Matrices (a–c) print as ASCII heatmaps + CSV; bandwidth series (d–f)
//! print as per-second rows + CSV.

use std::path::PathBuf;

use beehive::figure4::report::{
    bw_chart, heatmap, summary_row, write_matrix_csv, write_series_csv,
};
use beehive::figure4::{run_figure4, Figure4Config, Figure4Result, TeVariant};

struct Args {
    panel: String,
    small: bool,
    seconds: Option<u64>,
    hives: Option<usize>,
    switches: Option<usize>,
    out: PathBuf,
    check: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        panel: "all".into(),
        small: false,
        seconds: None,
        hives: None,
        switches: None,
        out: PathBuf::from("target/figure4"),
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--panel" => {
                let v = it.next().expect("--panel needs a value");
                if !["a", "b", "c", "d", "e", "f", "all"].contains(&v.as_str()) {
                    eprintln!("unknown panel {v:?} (expected a-f or all)");
                    std::process::exit(2);
                }
                args.panel = v;
            }
            "--small" => args.small = true,
            "--seconds" => args.seconds = Some(it.next().unwrap().parse().unwrap()),
            "--hives" => args.hives = Some(it.next().unwrap().parse().unwrap()),
            "--switches" => args.switches = Some(it.next().unwrap().parse().unwrap()),
            "--out" => args.out = PathBuf::from(it.next().unwrap()),
            "--check" => args.check = Some(it.next().expect("--check needs a value")),
            "--help" | "-h" => {
                println!(
                    "usage: figure4 [--panel a|b|c|d|e|f|all] [--small] [--seconds N] \
                     [--hives N] [--switches N] [--out DIR] [--check NAME]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn config_for(variant: TeVariant, args: &Args) -> Figure4Config {
    let mut cfg = if args.small {
        Figure4Config::small(variant)
    } else {
        Figure4Config {
            variant,
            ..Default::default()
        }
    };
    if let Some(s) = args.seconds {
        cfg.seconds = s;
    }
    if let Some(h) = args.hives {
        cfg.hives = h;
        cfg.voters = cfg.voters.min(h);
    }
    if let Some(s) = args.switches {
        cfg.switches = s;
    }
    cfg
}

fn run_variant(variant: TeVariant, args: &Args) -> Figure4Result {
    let cfg = config_for(variant, args);
    eprintln!(
        "running {variant:?}: {} hives, ≥{} switches, {} flows/switch, {}s …",
        cfg.hives, cfg.switches, cfg.flows_per_switch, cfg.seconds
    );
    let started = std::time::Instant::now();
    let result = run_figure4(&cfg);
    eprintln!("  done in {:.1}s wall", started.elapsed().as_secs_f64());
    result
}

fn emit_matrix(panel: char, label: &str, r: &Figure4Result, out: &std::path::Path) {
    println!("\n=== Figure 4{panel}: inter-hive message matrix — {label} ===");
    println!("{}", heatmap(&r.msg_matrix));
    println!("{}", summary_row(&format!("4{panel}"), r));
    let path = out.join(format!("fig4{panel}_matrix.csv"));
    write_matrix_csv(&path, &r.msg_matrix).expect("write matrix csv");
    println!("(csv: {})", path.display());
}

fn emit_series(panel: char, label: &str, r: &Figure4Result, out: &std::path::Path) {
    println!("\n=== Figure 4{panel}: control-channel bandwidth — {label} ===");
    print!("{}", bw_chart(&r.bw_series));
    println!("{}", summary_row(&format!("4{panel}"), r));
    let path = out.join(format!("fig4{panel}_bw.csv"));
    write_series_csv(&path, &r.bw_by_kind).expect("write series csv");
    println!("(csv: {})", path.display());
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.out).expect("create output dir");

    if let Some(check) = &args.check {
        if check == "voters-ablation" {
            run_voters_ablation(&args);
            return;
        }
        run_check(check, &args);
        return;
    }

    let wants = |p: char| args.panel == "all" || args.panel == p.to_string();
    let mut naive = None;
    let mut decoupled = None;
    let mut optimized = None;

    if wants('a') || wants('d') {
        naive = Some(run_variant(TeVariant::Naive, &args));
    }
    if wants('b') || wants('e') {
        decoupled = Some(run_variant(TeVariant::Decoupled, &args));
    }
    if wants('c') || wants('f') {
        optimized = Some(run_variant(TeVariant::Optimized, &args));
    }

    if let Some(r) = &naive {
        if wants('a') {
            emit_matrix('a', "naive TE (centralized)", r, &args.out);
        }
        if wants('d') {
            emit_series('d', "naive TE (centralized)", r, &args.out);
        }
        for fb in &r.feedback {
            println!("\n--- platform feedback ---\n{fb}");
        }
    }
    if let Some(r) = &decoupled {
        if wants('b') {
            emit_matrix('b', "decoupled TE", r, &args.out);
        }
        if wants('e') {
            emit_series('e', "decoupled TE", r, &args.out);
        }
    }
    if let Some(r) = &optimized {
        if wants('c') {
            emit_matrix('c', "decoupled TE + runtime optimization", r, &args.out);
        }
        if wants('f') {
            emit_series('f', "decoupled TE + runtime optimization", r, &args.out);
        }
    }

    // Cross-panel summary (who wins, by how much) when everything ran.
    if let (Some(a), Some(b), Some(c)) = (&naive, &decoupled, &optimized) {
        println!("\n=== Summary (paper-shape checks) ===");
        println!("{}", summary_row("naive    ", a));
        println!("{}", summary_row("decoupled", b));
        println!("{}", summary_row("optimized", c));
        let improvement = a.total_bytes as f64 / b.total_bytes.max(1) as f64;
        println!(
            "decoupling cuts control-channel bytes by {improvement:.1}x; \
             optimizer performed {} migrations; locality naive→decoupled→optimized: \
             {:.0}% → {:.0}% → {:.0}%",
            c.migrations,
            a.locality * 100.0,
            b.locality * 100.0,
            c.locality * 100.0
        );
    }
}

/// Design-choice ablation (DESIGN.md §3.5): how does the registry Raft
/// quorum size affect control-channel overhead? Runs the decoupled TE
/// scenario with increasing voter counts and reports the Raft share.
fn run_voters_ablation(args: &Args) {
    println!("=== Ablation: registry quorum size (decoupled TE) ===");
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>8}",
        "voters", "app+ctl B", "raft B", "total B", "raft %"
    );
    for voters in [1usize, 3, 5, 9] {
        let mut cfg = config_for(TeVariant::Decoupled, args);
        if voters > cfg.hives {
            continue;
        }
        cfg.voters = voters;
        let r = run_figure4(&cfg);
        let raft: u64 = r.bw_by_kind.iter().map(|&(_, _, _, raft)| raft).sum();
        let appctl = r.total_bytes;
        let total = appctl + raft;
        println!(
            "{voters:>7} {appctl:>12} {raft:>12} {total:>12} {:>7.1}%",
            raft as f64 / total.max(1) as f64 * 100.0
        );
    }
}

fn run_check(check: &str, args: &Args) {
    match check {
        // §5 claim: "Collect and Query are always invoked by the same bee
        // because of sharing cells with Route" — i.e. exactly one TE bee.
        "naive-collocation" => {
            let r = run_variant(TeVariant::Naive, args);
            let total: usize = r.te_bees_per_hive.values().sum();
            println!("naive TE bees cluster-wide: {total} (expect 1)");
            assert_eq!(total, 1, "naive TE must collocate on one bee");
            println!("CHECK PASSED");
        }
        // §5 claim: "after optimization, application's behavior is identical
        // to Figures 4e and 4b" — steady-state bandwidth converges to the
        // decoupled level and bees spread out.
        "optimized-equivalence" => {
            let d = run_variant(TeVariant::Decoupled, args);
            let o = run_variant(TeVariant::Optimized, args);
            let (ds, os) = (d.steady_bw().max(1), o.steady_bw());
            println!(
                "steady bandwidth: decoupled {:.1} KB/s, optimized {:.1} KB/s (ratio {:.2})",
                ds as f64 / 1000.0,
                os as f64 / 1000.0,
                os as f64 / ds as f64
            );
            println!(
                "bees per hive: decoupled on {} hives, optimized on {} hives",
                d.te_bees_per_hive.len(),
                o.te_bees_per_hive.len()
            );
            assert!(o.migrations > 0, "optimizer must migrate");
            assert!(
                os as f64 <= ds as f64 * 3.0,
                "optimized steady state should approach the decoupled level"
            );
            println!("CHECK PASSED");
        }
        other => {
            eprintln!("unknown check {other:?}");
            std::process::exit(2);
        }
    }
}
