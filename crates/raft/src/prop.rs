//! The repository's one property-test engine: a seeded input generator, a
//! driver and a shrinker.
//!
//! A property is two ordinary functions: `build` draws an input from a
//! [`Gen`], `check` panics when the input breaks the property. [`for_all`]
//! runs `check` on the inputs of seeds `0..cases`; the same seed always
//! gives the same input, so a run is reproducible without any setting.
//!
//! A [`Gen`] writes every draw on a tape and marks the stretch of tape each
//! removable collection element came from. When a case fails, the driver
//! [`minimize`]s the list of stretches — the loop the chaos sweep applies to
//! fault windows — rebuilding the input from the cut tape after each
//! removal, then reports the seed and the smallest input that still fails.
//! To keep a failing seed as a regression, run it with [`for_seeds`] ahead
//! of the property's `for_all`.

use std::cell::Cell;
use std::fmt::Debug;
use std::ops::{Range, RangeBounds};
use std::panic::{catch_unwind, resume_unwind, set_hook, take_hook, AssertUnwindSafe};
use std::sync::Once;

use crate::rng::{span_of, SeededRng, UniformInt};

/// Greedy drop-one minimization (ddmin-lite): repeatedly removes any single
/// item whose removal keeps `still_fails` true, until no single removal
/// does. `items` itself is assumed to fail.
pub fn minimize<T: Clone>(mut items: Vec<T>, mut still_fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < items.len() {
            let mut candidate = items.clone();
            candidate.remove(i);
            if still_fails(&candidate) {
                items = candidate;
                improved = true;
            } else {
                i += 1;
            }
        }
        if !improved {
            return items;
        }
    }
}

/// A seeded source of test inputs.
#[derive(Debug)]
pub struct Gen {
    rng: SeededRng,
    /// Every draw so far, as an offset from the low end of its range.
    tape: Vec<u64>,
    /// The stretches of `tape` that each hold one removable element.
    elements: Vec<Range<usize>>,
    /// Where the next draw reads `tape`, when replaying one.
    replay: Option<usize>,
}

impl Gen {
    /// The generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: SeededRng::seed_from_u64(seed),
            tape: Vec::new(),
            elements: Vec::new(),
            replay: None,
        }
    }

    /// A generator that repeats `tape`. A draw the tape no longer fits is
    /// pulled to the top of its range; past the end every draw is the low
    /// end, so any tape builds a valid input.
    fn replaying(tape: Vec<u64>) -> Self {
        Gen {
            tape,
            replay: Some(0),
            ..Gen::new(0)
        }
    }

    /// One of `span` values, counted from 0; `span == 0` stands for 2^64.
    fn draw(&mut self, span: u64) -> u64 {
        match &mut self.replay {
            Some(at) => {
                let v = self.tape.get(*at).copied().unwrap_or(0);
                *at += 1;
                v.min(span.wrapping_sub(1))
            }
            None => {
                let v = self.rng.below(span);
                self.tape.push(v);
                v
            }
        }
    }

    /// Uniform draw from `lo..hi`, `lo..=hi` or, for any value of the type,
    /// `..`. Panics on an empty range.
    pub fn range<T: UniformInt>(&mut self, range: impl RangeBounds<T>) -> T {
        let (lo, span) = span_of(range);
        T::from_u64(lo.to_u64().wrapping_add(self.draw(span)))
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.draw(2) == 1
    }

    /// Any finite `f64`, of either sign: zeros, subnormals and the largest
    /// magnitudes included.
    pub fn f64(&mut self) -> f64 {
        let bits = self.draw(0);
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            // An all-ones exponent: clear its lowest bit.
            f64::from_bits(bits & !(1 << 52))
        }
    }

    /// A vector whose length is uniform over `len` (which needs an upper
    /// end), each element built by `item`. Elements beyond the least length
    /// are removable: the shrinker drops them one by one.
    pub fn vec<T>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let (least, lengths) = span_of(len);
        let most = least + (lengths as usize - 1);
        let mut out = Vec::new();
        loop {
            let start = self.tape.len();
            let removable = out.len() >= least;
            // "One more?" — yes with the odds that make the length uniform,
            // never at the greatest length. The answer opens the element's
            // stretch, so cutting the stretch removes the element and
            // nothing else, and a final "no" always closes the vector.
            if removable && self.draw((most - out.len() + 1) as u64) == 0 {
                return out;
            }
            let slot = self.elements.len();
            if removable {
                self.elements.push(start..start);
            }
            out.push(item(self));
            if removable {
                self.elements[slot].end = self.tape.len();
            }
        }
    }

    /// `None` or one `item`, evenly.
    pub fn option<T>(&mut self, item: impl FnMut(&mut Gen) -> T) -> Option<T> {
        self.vec(0..=1, item).pop()
    }

    /// A string of `len` characters: half printable ASCII, half any Unicode
    /// scalar value.
    pub fn string(&mut self, len: impl RangeBounds<usize>) -> String {
        let chars = self.vec(len, |g| {
            let code = if g.bool() {
                g.range(0x20..0x7Fu32)
            } else {
                // Step over the 0x800 surrogates, which are not characters.
                let c = g.range(0..0x11_0000u32 - 0x800);
                c + if c < 0xD800 { 0 } else { 0x800 }
            };
            char::from_u32(code).expect("not a surrogate, at most 0x10FFFF")
        });
        chars.into_iter().collect()
    }
}

thread_local! {
    /// Set while this thread re-checks shrink candidates.
    static SHRINKING: Cell<bool> = const { Cell::new(false) };
}

/// Keeps the panic messages of shrink candidates off stderr, on the threads
/// that are shrinking only: of a failing case, the report and the minimized
/// input's own panic are what is worth reading.
fn hush_shrinking() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let report = take_hook();
        set_hook(Box::new(move |panic| {
            if !SHRINKING.get() {
                report(panic)
            }
        }));
    });
}

/// Checks the property on the inputs of seeds `0..cases`; see [`for_seeds`].
pub fn for_all<T: Debug>(cases: u64, build: impl Fn(&mut Gen) -> T, check: impl Fn(T)) {
    for_seeds(0..cases, build, check)
}

/// Builds one input per seed and hands it to `check`, which panics to reject
/// it. On the first rejected input, prints the seed and the smallest input
/// the shrinker found that `check` still rejects, and panics as `check` did
/// on that one. `build` must not panic, whatever it draws.
pub fn for_seeds<T: Debug>(
    seeds: impl IntoIterator<Item = u64>,
    build: impl Fn(&mut Gen) -> T,
    check: impl Fn(T),
) {
    let rejects = |g: &mut Gen, shrinking: bool| {
        let input = build(g);
        SHRINKING.set(shrinking);
        let verdict = catch_unwind(AssertUnwindSafe(|| check(input)));
        SHRINKING.set(false);
        verdict.err()
    };
    for seed in seeds {
        let mut g = Gen::new(seed);
        if rejects(&mut g, false).is_none() {
            continue;
        }
        // The tape without the stretches `kept` leaves out.
        let cut = |kept: &[usize]| {
            let mut keep = vec![true; g.tape.len()];
            let mut kept = kept.iter().peekable();
            for (id, stretch) in g.elements.iter().enumerate() {
                if kept.next_if_eq(&&id).is_none() {
                    keep[stretch.clone()].fill(false);
                }
            }
            let tape = g.tape.iter().zip(keep).filter(|(_, keep)| *keep);
            tape.map(|(v, _)| *v).collect::<Vec<u64>>()
        };
        hush_shrinking();
        let all = (0..g.elements.len()).collect();
        let kept = minimize(all, |kept| {
            rejects(&mut Gen::replaying(cut(kept)), true).is_some()
        });
        let tape = cut(&kept);
        eprintln!(
            "property failed at seed {seed}; minimized input ({} of {} removable elements kept):\n{:?}",
            kept.len(),
            g.elements.len(),
            build(&mut Gen::replaying(tape.clone()))
        );
        let panic = rejects(&mut Gen::replaying(tape), false).expect("the minimized input fails");
        resume_unwind(panic);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_reach_both_ends_and_stay_inside() {
        let mut g = Gen::new(1);
        let (mut ints, mut signed, mut lens, mut strs) = ([0u32; 4], [0u32; 5], [0u32; 4], [0; 3]);
        let (mut bools, mut options) = ([0u32; 2], [0u32; 2]);
        for _ in 0..400 {
            ints[usize::from(g.range(3..=6u8)) - 3] += 1;
            ints[usize::from(g.range(3..7u16)) - 3] += 1;
            signed[(g.range(-2..=2i32) + 2) as usize] += 1;
            lens[g.vec(1..5, |g| g.range(0..9u64)).len() - 1] += 1;
            strs[g.string(0..=2).chars().count()] += 1;
            bools[usize::from(g.bool())] += 1;
            options[g.option(|g| g.bool()).map_or(0, |_| 1)] += 1;
            assert!(g.f64().is_finite());
        }
        for hits in [&ints[..], &signed, &lens, &strs, &bools, &options] {
            assert!(
                hits.iter().all(|&n| n > 0),
                "a value was never drawn: {hits:?}"
            );
        }
        assert_eq!(g.range(7..=7usize), 7);
        assert_eq!(g.vec(3..=3, |g| g.bool()).len(), 3);
        let any: Vec<u8> = g.vec(4000..=4000, |g| g.range(..));
        assert!(any.contains(&0) && any.contains(&255));
    }

    #[test]
    fn floats_cover_signs_and_magnitudes() {
        let mut g = Gen::new(2);
        let xs = g.vec(4000..=4000, |g| g.f64());
        assert!(xs.iter().any(|x| *x < -1e300) && xs.iter().any(|x| *x > 1e300));
        assert!(xs.iter().any(|x| x.abs() < 1e-300));
    }

    fn nested(g: &mut Gen) -> (Vec<Vec<u8>>, String, Option<u64>) {
        let rows = g.vec(0..6, |g| g.vec(0..4, |g| g.range(..)));
        (rows, g.string(0..12), g.option(|g| g.range(..)))
    }

    #[test]
    fn same_seed_same_input_and_a_tape_replays_it() {
        for seed in 0..50 {
            let mut g = Gen::new(seed);
            let input = nested(&mut g);
            assert_eq!(input, nested(&mut Gen::new(seed)));
            assert_eq!(input, nested(&mut Gen::replaying(g.tape)));
        }
        assert_ne!(nested(&mut Gen::new(1)), nested(&mut Gen::new(2)));
        // An empty tape still builds an input: the least one.
        assert_eq!(
            nested(&mut Gen::replaying(vec![])),
            (vec![], String::new(), None)
        );
    }

    /// Runs a property expected to fail; returns the first input it
    /// rejected and the minimized one.
    fn minimized<T: Debug + Clone>(
        build: impl Fn(&mut Gen) -> T,
        fails: impl Fn(&T) -> bool,
    ) -> (T, T) {
        let rejected = std::sync::Mutex::new(Vec::new());
        let run = catch_unwind(AssertUnwindSafe(|| {
            for_all(64, &build, |input| {
                if fails(&input) {
                    rejected.lock().unwrap().push(input);
                    panic!("planted");
                }
            })
        }));
        assert!(run.is_err(), "no seed in 0..64 built a failing input");
        let rejected = rejected.into_inner().unwrap();
        (rejected[0].clone(), rejected[rejected.len() - 1].clone())
    }

    #[test]
    fn planted_failure_minimizes_to_its_cause() {
        let build = |g: &mut Gen| g.vec(0..40, |g| g.range(0..10u8));
        let (first, mut least) = minimized(build, |v| v.contains(&3) && v.contains(&7));
        assert!(first.len() > 2, "nothing to minimize in {first:?}");
        least.sort_unstable();
        assert_eq!(least, [3, 7]);
    }

    #[test]
    fn nested_elements_are_removed_and_later_draws_keep_their_place() {
        let build = |g: &mut Gen| {
            let rows = g.vec(1..8, |g| g.vec(0..8, |g| g.range(0..4u8)));
            (rows, g.range(..))
        };
        let fails = |(rows, _): &(Vec<Vec<u8>>, u64)| rows.iter().flatten().any(|&x| x == 3);
        let ((_, tail), (rows, least_tail)) = minimized(build, fails);
        assert_eq!(rows.iter().flatten().copied().collect::<Vec<u8>>(), [3]);
        // The first row cannot be removed; the culprit's may be another.
        assert!(rows.len() <= 2, "{rows:?}");
        assert_eq!(least_tail, tail);
    }

    #[test]
    fn minimize_is_the_drop_one_fixpoint() {
        let kept = minimize((0..20).collect(), |v: &[u32]| {
            v.contains(&4) && v.contains(&11)
        });
        assert_eq!(kept, [4, 11]);
        assert_eq!(minimize(vec![1, 2, 3], |_| false), [1, 2, 3]);
    }
}
