//! Property tests for the supervised-redelivery backoff schedule
//! ([`beehive::core::backoff_delay_ms`]).
//!
//! The schedule must be: monotonically non-decreasing in the attempt
//! number, capped (strictly below `65 * base`), and a pure function of
//! `(base_ms, attempt, bee)` — the jitter comes from the bee id, never from
//! global state, so chaos runs replay identically.

use beehive::core::{backoff_delay_ms, BeeId};
use beehive::raft::prop::for_all;

/// Cases per property.
const CASES: u64 = 256;

#[test]
fn monotone_non_decreasing() {
    for_all(
        CASES,
        |g| (g.range(1u64..10_000), g.range::<u64>(..)),
        |(base, bee)| {
            let bee = BeeId(bee);
            let mut prev = 0u64;
            for attempt in 1u32..=20 {
                let d = backoff_delay_ms(base, attempt, bee);
                assert!(
                    d >= prev,
                    "attempt {attempt}: {d} < previous {prev} (base {base}, bee {bee:?})"
                );
                prev = d;
            }
        },
    );
}

#[test]
fn capped_below_65x_base() {
    for_all(
        CASES,
        |g| {
            (
                g.range(1u64..10_000),
                g.range(1u32..1_000),
                g.range::<u64>(..),
            )
        },
        |(base, attempt, bee)| {
            let d = backoff_delay_ms(base, attempt, BeeId(bee));
            // Cap: exponent tops out at 64*base, jitter is < base.
            assert!(d < 65 * base, "{d} >= 65 * {base}");
        },
    );
}

#[test]
fn deterministic_per_bee_and_attempt() {
    for_all(
        CASES,
        |g| {
            (
                g.range(0u64..10_000),
                g.range(0u32..1_000),
                g.range::<u64>(..),
            )
        },
        |(base, attempt, bee)| {
            let a = backoff_delay_ms(base, attempt, BeeId(bee));
            let b = backoff_delay_ms(base, attempt, BeeId(bee));
            assert_eq!(a, b);
        },
    );
}

#[test]
fn constant_past_the_clamp() {
    for_all(
        CASES,
        |g| (g.range(1u64..10_000), g.range::<u64>(..)),
        |(base, bee)| {
            let bee = BeeId(bee);
            let capped = backoff_delay_ms(base, 7, bee);
            for attempt in 8u32..=64 {
                assert_eq!(backoff_delay_ms(base, attempt, bee), capped);
            }
        },
    );
}

#[test]
fn zero_base_behaves_as_one() {
    for_all(
        CASES,
        |g| (g.range(1u32..100), g.range::<u64>(..)),
        |(attempt, bee)| {
            let bee = BeeId(bee);
            assert_eq!(
                backoff_delay_ms(0, attempt, bee),
                backoff_delay_ms(1, attempt, bee)
            );
        },
    );
}
