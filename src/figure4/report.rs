//! Rendering of experiment results: ASCII heatmaps, CSV files and summary
//! rows — the textual equivalents of the paper's Figure 4 panels.

use std::io::Write;
use std::path::Path;

use super::Figure4Result;

/// Renders the message matrix as an ASCII heatmap (log-scaled shades).
pub fn heatmap(matrix: &[Vec<u64>]) -> String {
    let max = matrix.iter().flatten().copied().max().unwrap_or(0);
    let shades = [' ', '.', ':', '+', '*', '#', '@'];
    let mut out = String::new();
    for row in matrix {
        for &v in row {
            let c = if v == 0 || max == 0 {
                shades[0]
            } else {
                // log scale: 1..=max → 1..=6
                let level = ((v as f64).ln() / (max as f64).ln().max(1.0) * 6.0).ceil() as usize;
                shades[level.clamp(1, 6)]
            };
            out.push(c);
        }
        out.push('\n');
    }
    out
}

/// Writes the matrix as CSV (`src,dst,msgs` triples, nonzero only).
pub fn write_matrix_csv(path: &Path, matrix: &[Vec<u64>]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "src_hive,dst_hive,msgs")?;
    for (i, row) in matrix.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if v > 0 {
                writeln!(f, "{},{},{}", i + 1, j + 1, v)?;
            }
        }
    }
    Ok(())
}

/// Writes the bandwidth series as CSV.
pub fn write_series_csv(path: &Path, by_kind: &[(u64, u64, u64, u64)]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "second,total_bytes,app_bytes,control_bytes,raft_bytes")?;
    for &(t, app, control, raft) in by_kind {
        writeln!(
            f,
            "{},{},{},{},{}",
            t / 1000,
            app + control,
            app,
            control,
            raft
        )?;
    }
    Ok(())
}

/// Renders the bandwidth series as a small ASCII bar chart (KB/s).
pub fn bw_chart(series: &[(u64, u64)]) -> String {
    let max = series.iter().map(|&(_, b)| b).max().unwrap_or(0).max(1);
    let mut out = String::new();
    for &(t, b) in series {
        let bar_len = (b * 50 / max) as usize;
        out.push_str(&format!(
            "{:>4}s {:>10.1} KB/s |{}\n",
            t / 1000,
            b as f64 / 1000.0,
            "█".repeat(bar_len)
        ));
    }
    out
}

/// One-line summary for a panel, suitable for EXPERIMENTS.md tables.
pub fn summary_row(label: &str, r: &Figure4Result) -> String {
    format!(
        "{label}: locality={:.1}% hot_hive={} peak={:.1}KB/s steady={:.1}KB/s total={:.1}MB migrations={}",
        r.locality * 100.0,
        r.hot_hive
            .map(|(h, s)| format!("{h}@{:.0}%", s * 100.0))
            .unwrap_or_else(|| "-".into()),
        r.peak_bw() as f64 / 1000.0,
        r.steady_bw() as f64 / 1000.0,
        r.total_bytes as f64 / 1e6,
        r.migrations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_shades_scale() {
        let m = vec![vec![0, 1], vec![10, 1000]];
        let h = heatmap(&m);
        let lines: Vec<&str> = h.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].chars().next(), Some(' '), "zero is blank");
        assert_eq!(lines[1].chars().nth(1), Some('@'), "max is densest");
    }

    #[test]
    fn csv_roundtrip_shapes() {
        let dir = std::env::temp_dir().join(format!("bh-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mpath = dir.join("m.csv");
        write_matrix_csv(&mpath, &[vec![0, 5], vec![3, 0]]).unwrap();
        let text = std::fs::read_to_string(&mpath).unwrap();
        assert!(text.contains("1,2,5"));
        assert!(text.contains("2,1,3"));
        assert_eq!(text.lines().count(), 3, "header + 2 nonzero cells");

        let spath = dir.join("s.csv");
        write_series_csv(&spath, &[(0, 100, 20, 5), (1000, 50, 10, 5)]).unwrap();
        let text = std::fs::read_to_string(&spath).unwrap();
        assert!(text.contains("0,120,100,20,5"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chart_renders_rows() {
        let chart = bw_chart(&[(0, 1000), (1000, 500)]);
        assert_eq!(chart.lines().count(), 2);
        assert!(chart.contains("1.0 KB/s"));
    }
}
