//! One monotonic time base for generator, sink and transport wrappers.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process; never 0, so 0 can mean
/// "not yet" in an atomic slot.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64 + 1
}

/// How close to its due time the generator stops sleeping and spins. Short:
/// while it spins it holds a CPU the system under test may want, and at tens
/// of thousands of arrivals a second a long spin before each would take that
/// CPU for good.
const SPIN_NS: u64 = 3_000;

/// Blocks until `due_ns` and returns the time it actually resumed. Sleeps
/// for all but the last few microseconds: on a two-core box a spinning
/// generator would take half the machine from the system under test.
pub fn wait_until(due_ns: u64) -> u64 {
    loop {
        let now = now_ns();
        if now >= due_ns {
            return now;
        }
        let left = due_ns - now;
        if left > SPIN_NS {
            std::thread::sleep(std::time::Duration::from_nanos(left - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins thread `tid` of this process (0: the calling thread) to one CPU,
/// `index` modulo the CPUs there are. Needs no privilege. Best effort.
pub fn pin_to_cpu(tid: i32, index: usize) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mask = 1u64 << (index % cpus.min(64));
    // SAFETY: a pointer to a live u64 and its size; `tid` is 0 or a thread
    // of this process.
    unsafe {
        sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask);
    }
}

/// Stops the kernel rounding the calling (generator) thread's timer
/// wake-ups: the default slack is 50 µs, most of a `pktin_local` round trip.
/// Needs no privilege. The generator otherwise runs like every other thread
/// here, under the default scheduling policy: the numbers must not be those
/// of a privilege.
pub fn no_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: plain integers; affects only the calling thread.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}
