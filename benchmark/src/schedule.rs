//! Seeded inputs: who sends to whom, and when.

use crate::spec::{HOSTS, SWITCHES};

/// splitmix64: small, seedable, and the bench's own, so its inputs do not
/// depend on which `rand` the system under test was built with.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` is tiny next to 2^64, so the modulo bias is
    /// far below anything measured here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with mean `mean`.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -self.unit().ln() * mean
    }
}

/// One event: host `src` on switch `switch` sends to host `dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flow {
    /// Datapath id, 1-based.
    pub switch: u8,
    pub src: u8,
    pub dst: u8,
}

impl Flow {
    pub fn random(rng: &mut Rng) -> Flow {
        Flow::on_switch(rng.below(SWITCHES as u64) as u8 + 1, rng)
    }

    pub fn on_switch(switch: u8, rng: &mut Rng) -> Flow {
        let src = rng.below(HOSTS as u64) as u8;
        let dst = (src + 1 + rng.below(HOSTS as u64 - 1) as u8) % HOSTS as u8;
        Flow { switch, src, dst }
    }
}

/// An open-loop arrival: due `due_ns` after the phase starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    pub flow: Flow,
}

/// Poisson arrivals at `rate` per second over `duration_ns`, drawn as they
/// are consumed: a phase's schedule costs no memory, and the same seed gives
/// the same stream.
pub struct Arrivals {
    rng: Rng,
    mean_gap_ns: f64,
    duration_ns: f64,
    t: f64,
}

pub fn open_schedule(seed: u64, rate: f64, duration_ns: u64) -> Arrivals {
    Arrivals {
        rng: Rng::new(seed),
        mean_gap_ns: 1e9 / rate,
        duration_ns: duration_ns as f64,
        t: 0.0,
    }
}

impl Iterator for Arrivals {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        self.t += self.rng.exp(self.mean_gap_ns);
        (self.t < self.duration_ns).then(|| Arrival {
            due_ns: self.t as u64,
            flow: Flow::random(&mut self.rng),
        })
    }
}

/// Issues every arrival at its due time, or as soon after as the emitter
/// lets it; `emit` is told the arrival's index and when it was actually
/// issued. The schedule never slips: an arrival delayed by a stall keeps its
/// original due time, and latency is taken from that, so the stall is
/// charged to every event it held up (no coordinated omission).
pub fn run_open(
    arrivals: impl Iterator<Item = Arrival>,
    start_ns: u64,
    wait_until: impl Fn(u64) -> u64,
    mut emit: impl FnMut(usize, &Arrival, u64),
) {
    for (i, a) in arrivals.enumerate() {
        let issued_ns = wait_until(start_ns + a.due_ns);
        emit(i, &a, issued_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{now_ns, wait_until};
    use std::time::Duration;

    #[test]
    fn same_seed_same_schedule_byte_for_byte() {
        let a: Vec<Arrival> = open_schedule(42, 5_000.0, 200_000_000).collect();
        let b: Vec<Arrival> = open_schedule(42, 5_000.0, 200_000_000).collect();
        let c: Vec<Arrival> = open_schedule(43, 5_000.0, 200_000_000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(
            (800..1200).contains(&a.len()),
            "about rate × time: {}",
            a.len()
        );
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|x| x.flow.src != x.flow.dst
            && (1..=SWITCHES as u8).contains(&x.flow.switch)
            && (x.flow.dst as usize) < HOSTS));
    }

    /// The coordinated-omission test: a sink that stalls 50 ms at one event
    /// must make every event that was due during the stall report at least
    /// the time it waited, not the (short) service time it saw once issued.
    #[test]
    fn a_stall_is_charged_to_the_events_it_delayed() {
        let schedule: Vec<Arrival> = open_schedule(7, 2_000.0, 150_000_000).collect();
        let stall_at = schedule.len() / 3;
        let start = now_ns() + 1_000_000;
        let mut done = vec![0u64; schedule.len()];
        run_open(schedule.iter().copied(), start, wait_until, |i, _, _| {
            if i == stall_at {
                std::thread::sleep(Duration::from_millis(50));
            }
            done[i] = now_ns();
        });
        let stall_begin = start + schedule[stall_at].due_ns;
        let stall_end = done[stall_at];
        assert!(stall_end - stall_begin >= 50_000_000);
        let mut held_up = 0;
        for (i, a) in schedule.iter().enumerate().skip(stall_at + 1) {
            let due = start + a.due_ns;
            if due < stall_end {
                held_up += 1;
                let latency = done[i] - due;
                assert!(
                    latency >= stall_end - due,
                    "event {i} due {} ns into the stall reports only {latency} ns",
                    due - stall_begin
                );
            }
        }
        assert!(held_up >= 50, "the stall covered {held_up} arrivals");
    }
}
