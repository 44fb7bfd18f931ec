//! Property tests for the latency histograms: whatever is observed and
//! however histograms are merged, the per-bucket counts always sum to the
//! number of observations, the sum of observations is preserved, and the p99
//! never reports below an actually-observed value's bucket.

use beehive_core::{LatencyHistogram, LATENCY_BUCKETS_US};
use beehive_raft::prop::{for_all, Gen};

/// Cases per property.
const CASES: u64 = 128;

fn observe_all(values: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::default();
    for &v in values {
        h.observe(v);
    }
    h
}

/// `len` latencies below `below` microseconds.
fn latencies(g: &mut Gen, below: u64, len: std::ops::Range<usize>) -> Vec<u64> {
    g.vec(len, |g| g.range(0..below))
}

#[test]
fn bucket_counts_sum_to_observation_count() {
    for_all(
        CASES,
        |g| latencies(g, 20_000_000, 0..200),
        |values| {
            let h = observe_all(&values);
            assert_eq!(h.count, values.len() as u64);
            assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
            assert_eq!(h.sum_us, values.iter().sum::<u64>());
            assert_eq!(h.is_empty(), values.is_empty());
        },
    );
}

#[test]
fn merge_preserves_the_sum_invariant() {
    for_all(
        CASES,
        |g| {
            (
                latencies(g, 20_000_000, 0..100),
                latencies(g, 20_000_000, 0..100),
            )
        },
        |(a, b)| {
            let mut ha = observe_all(&a);
            let hb = observe_all(&b);
            ha.merge(&hb);
            assert_eq!(ha.count, (a.len() + b.len()) as u64);
            assert_eq!(ha.buckets.iter().sum::<u64>(), ha.count);
            // Merging must equal observing the concatenation directly.
            let mut all = a.clone();
            all.extend_from_slice(&b);
            let direct = observe_all(&all);
            assert_eq!(ha.buckets, direct.buckets);
            assert_eq!(ha.sum_us, direct.sum_us);
        },
    );
}

#[test]
fn p99_is_a_bucket_upper_bound_at_or_above_the_max() {
    for_all(
        CASES,
        |g| latencies(g, 5_000_000, 1..200),
        |values| {
            let h = observe_all(&values);
            let p99 = h.p99_us().expect("non-empty histogram has a p99");
            let max = *values.iter().max().unwrap();
            // p99 is reported as a bucket upper bound; with <100 observations it
            // must cover the maximum observation's bucket.
            if values.len() < 100 {
                assert!(
                    p99 >= max.min(*LATENCY_BUCKETS_US.last().unwrap()),
                    "p99 {} < max {} over {} obs",
                    p99,
                    max,
                    values.len()
                );
            }
            assert!(
                LATENCY_BUCKETS_US.contains(&p99)
                    || p99 == 2 * LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 1],
                "p99 {} is not a bucket bound",
                p99
            );
        },
    );
}
