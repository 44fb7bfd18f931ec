//! Control-channel accounting: who sent how many bytes to whom, of which
//! category, when. This regenerates the paper's Figure 4: the inter-hive
//! traffic matrices (4a–c) and the bandwidth-over-time series (4d–f).

use std::collections::BTreeMap;
use std::ops::Range;

use beehive_core::transport::FrameKind;
use beehive_core::HiveId;
use serde::{Deserialize, Serialize};

/// Accumulated traffic between one ordered hive pair for one category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatrixCell {
    /// Number of frames.
    pub msgs: u64,
    /// Total wire bytes.
    pub bytes: u64,
}

/// Byte/message counters keyed by `(src, dst, kind)` plus a time-bucketed
/// series keyed by `(bucket, kind)`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrafficMatrix {
    /// Bucket width in ms for the time series.
    pub bucket_ms: u64,
    cells: BTreeMap<(u32, u32, FrameKind), MatrixCell>,
    series: BTreeMap<(u64, FrameKind), MatrixCell>,
}

impl TrafficMatrix {
    /// A matrix with the given time-bucket width (e.g. 1000 ms for per-second
    /// bandwidth plots).
    pub fn new(bucket_ms: u64) -> Self {
        TrafficMatrix {
            bucket_ms: bucket_ms.max(1),
            ..Default::default()
        }
    }

    /// Records one frame.
    pub fn record(&mut self, src: HiveId, dst: HiveId, kind: FrameKind, bytes: usize, now_ms: u64) {
        let cell = self.cells.entry((src.0, dst.0, kind)).or_default();
        cell.msgs += 1;
        cell.bytes += bytes as u64;
        let bucket = now_ms / self.bucket_ms;
        let s = self.series.entry((bucket, kind)).or_default();
        s.msgs += 1;
        s.bytes += bytes as u64;
    }

    /// Total traffic between `src` and `dst` for `kind`.
    pub fn get(&self, src: HiveId, dst: HiveId, kind: FrameKind) -> MatrixCell {
        self.cells
            .get(&(src.0, dst.0, kind))
            .copied()
            .unwrap_or_default()
    }

    /// Total bytes between `src` and `dst`, all categories.
    pub fn total_between(&self, src: HiveId, dst: HiveId) -> u64 {
        [FrameKind::App, FrameKind::Raft, FrameKind::Control]
            .into_iter()
            .map(|k| self.get(src, dst, k).bytes)
            .sum()
    }

    /// The full `hives × hives` byte matrix for `kinds`, with hives ordered
    /// as given. Entry `[i][j]` is bytes sent from `hives[i]` to `hives[j]`.
    pub fn matrix(&self, hives: &[HiveId], kinds: &[FrameKind]) -> Vec<Vec<u64>> {
        hives
            .iter()
            .map(|&src| {
                hives
                    .iter()
                    .map(|&dst| kinds.iter().map(|&k| self.get(src, dst, k).bytes).sum())
                    .collect()
            })
            .collect()
    }

    /// Per-bucket total bytes for `kinds`, as `(bucket_start_ms, bytes)` in
    /// time order, for every bucket that overlaps the measurement `window`
    /// (virtual ms), quiet ones included as zeros.
    pub fn series(&self, kinds: &[FrameKind], window: Range<u64>) -> Vec<(u64, u64)> {
        if window.is_empty() {
            return Vec::new();
        }
        let first = window.start / self.bucket_ms;
        let last = (window.end - 1) / self.bucket_ms;
        let mut by_bucket: BTreeMap<u64, u64> = (first..=last).map(|b| (b, 0)).collect();
        for ((bucket, kind), cell) in &self.series {
            if kinds.contains(kind) {
                if let Some(bytes) = by_bucket.get_mut(bucket) {
                    *bytes += cell.bytes;
                }
            }
        }
        by_bucket
            .into_iter()
            .map(|(b, bytes)| (b * self.bucket_ms, bytes))
            .collect()
    }

    /// Grand total bytes for `kinds`.
    pub fn total(&self, kinds: &[FrameKind]) -> u64 {
        self.cells
            .iter()
            .filter(|((_, _, k), _)| kinds.contains(k))
            .map(|(_, c)| c.bytes)
            .sum()
    }

    /// Fraction of all `kinds` bytes that touch (enter or leave) the busiest
    /// single hive — the "is this effectively centralized?" metric used to
    /// check Figure 4a.
    pub fn hot_hive_share(&self, hives: &[HiveId], kinds: &[FrameKind]) -> Option<(HiveId, f64)> {
        let total = self.total(kinds);
        if total == 0 {
            return None;
        }
        let mut best: Option<(HiveId, u64)> = None;
        for &h in hives {
            let touched: u64 = self
                .cells
                .iter()
                .filter(|((s, d, k), _)| kinds.contains(k) && (*s == h.0 || *d == h.0))
                .map(|(_, c)| c.bytes)
                .sum();
            if best.is_none() || touched > best.unwrap().1 {
                best = Some((h, touched));
            }
        }
        best.map(|(h, b)| (h, b as f64 / total as f64))
    }

    /// Fraction of `kinds` bytes that flow between *distinct* hives pairs
    /// where src == dst would be local (always 0 here since the fabric only
    /// sees inter-hive frames); kept for symmetry in reports.
    pub fn merge(&mut self, other: &TrafficMatrix) {
        for (k, c) in &other.cells {
            let cell = self.cells.entry(*k).or_default();
            cell.msgs += c.msgs;
            cell.bytes += c.bytes;
        }
        for (k, c) in &other.series {
            let cell = self.series.entry(*k).or_default();
            cell.msgs += c.msgs;
            cell.bytes += c.bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut m = TrafficMatrix::new(1000);
        m.record(HiveId(1), HiveId(2), FrameKind::App, 100, 0);
        m.record(HiveId(1), HiveId(2), FrameKind::App, 50, 500);
        m.record(HiveId(2), HiveId(1), FrameKind::Raft, 30, 1500);
        assert_eq!(
            m.get(HiveId(1), HiveId(2), FrameKind::App),
            MatrixCell {
                msgs: 2,
                bytes: 150
            }
        );
        assert_eq!(m.total_between(HiveId(2), HiveId(1)), 30);
        assert_eq!(m.total(&[FrameKind::App]), 150);
        assert_eq!(m.total(&[FrameKind::App, FrameKind::Raft]), 180);
    }

    #[test]
    fn matrix_layout() {
        let mut m = TrafficMatrix::new(1000);
        m.record(HiveId(1), HiveId(2), FrameKind::App, 10, 0);
        m.record(HiveId(2), HiveId(3), FrameKind::App, 20, 0);
        let grid = m.matrix(&[HiveId(1), HiveId(2), HiveId(3)], &[FrameKind::App]);
        assert_eq!(grid[0][1], 10);
        assert_eq!(grid[1][2], 20);
        assert_eq!(grid[2][0], 0);
    }

    #[test]
    fn series_fills_gaps() {
        let mut m = TrafficMatrix::new(1000);
        m.record(HiveId(1), HiveId(2), FrameKind::App, 10, 100);
        m.record(HiveId(1), HiveId(2), FrameKind::App, 30, 3_200);
        let s = m.series(&[FrameKind::App], 0..4_000);
        assert_eq!(s, vec![(0, 10), (1000, 0), (2000, 0), (3000, 30)]);
    }

    #[test]
    fn series_spans_the_whole_window_not_just_the_busy_buckets() {
        let mut m = TrafficMatrix::new(1000);
        m.record(HiveId(1), HiveId(2), FrameKind::App, 10, 1_500);
        m.record(HiveId(1), HiveId(2), FrameKind::Raft, 99, 2_500);
        let s = m.series(&[FrameKind::App], 500..4_500);
        assert_eq!(s, vec![(0, 0), (1000, 10), (2000, 0), (3000, 0), (4000, 0)]);
        assert!(m.series(&[FrameKind::App], 700..700).is_empty());
    }

    #[test]
    fn hot_hive_share_detects_centralization() {
        let mut m = TrafficMatrix::new(1000);
        // Everything flows to/from hive 1.
        for other in 2..=5u32 {
            m.record(HiveId(other), HiveId(1), FrameKind::App, 100, 0);
            m.record(HiveId(1), HiveId(other), FrameKind::App, 10, 0);
        }
        let hives: Vec<HiveId> = (1..=5).map(HiveId).collect();
        let (hot, share) = m.hot_hive_share(&hives, &[FrameKind::App]).unwrap();
        assert_eq!(hot, HiveId(1));
        assert!((share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines() {
        let mut a = TrafficMatrix::new(1000);
        a.record(HiveId(1), HiveId(2), FrameKind::App, 10, 0);
        let mut b = TrafficMatrix::new(1000);
        b.record(HiveId(1), HiveId(2), FrameKind::App, 5, 0);
        a.merge(&b);
        assert_eq!(a.get(HiveId(1), HiveId(2), FrameKind::App).bytes, 15);
    }
}
