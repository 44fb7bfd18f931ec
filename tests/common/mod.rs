//! Helpers shared by the test binaries of this directory.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use beehive::core::{Hive, HiveId, Instrumentation, Lifecycle};
use beehive_core::sync::Mutex;

/// How long a hive thread gets to return once it was told to stop or drain.
pub const JOIN_DEADLINE: Duration = Duration::from_secs(30);

/// A hive running on a thread of its own, plus what a test can still see of
/// it while the thread owns it.
pub struct HiveThread {
    id: HiveId,
    lifecycle: Arc<Lifecycle>,
    instr: Arc<Mutex<Instrumentation>>,
    thread: JoinHandle<Hive>,
}

impl HiveThread {
    /// Moves `hive` onto a new thread that calls `run` on it and then hands
    /// the hive back to [`HiveThread::join`].
    pub fn spawn(mut hive: Hive, run: impl FnOnce(&mut Hive) + Send + 'static) -> Self {
        let (id, lifecycle, instr) = (hive.id(), hive.lifecycle(), hive.instrumentation());
        let thread = std::thread::spawn(move || {
            run(&mut hive);
            hive
        });
        HiveThread {
            id,
            lifecycle,
            instr,
            thread,
        }
    }

    /// Waits for the hive to come back. A thread still running after
    /// [`JOIN_DEADLINE`] fails the test with the lifecycle stage the hive is
    /// stuck in and its outbox depth, rather than hanging the suite.
    pub fn join(self) -> Hive {
        let deadline = Instant::now() + JOIN_DEADLINE;
        while !self.thread.is_finished() {
            assert!(
                Instant::now() < deadline,
                "hive {} did not return within {JOIN_DEADLINE:?}: stage {}, outbox depth {}",
                self.id.0,
                self.lifecycle.stage().label(),
                self.instr.lock().platform.outbox_depth,
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        self.thread
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}
