//! The system under test: two hives in this process, each `Hive::run` on
//! its own thread, joined by real loopback TCP through the reactor
//! transport. Built through the crates' public API only.
//!
//! Frozen configuration: both hives are registry voters, `workers = 1`,
//! durable registry storage in a per-boot directory with
//! `FsyncPolicy::Never`, `HiveConfig::clustered` defaults otherwise.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use beehive_apps::learning_switch::{learning_switch_app, LEARNING_SWITCH_APP};
use beehive_core::transport::{Frame, Transport, TransportCounters, TransportPreference};
use beehive_core::{App, Cell, FsyncPolicy, Hive, HiveConfig, HiveHandle, HiveId, SystemClock};
use beehive_net::bind_tcp;
use beehive_openflow::{driver_app, SwitchIo};

use crate::sink::Sink;
use crate::spec::{Kind, SWITCHES};
use crate::traced::{TraceShared, TracedTransport};

pub const HIVES: [HiveId; 2] = [HiveId(1), HiveId(2)];

/// The hive a switch's control channel terminates on.
pub fn master_of(dpid: u64) -> HiveId {
    if dpid as usize <= SWITCHES / 2 {
        HIVES[0]
    } else {
        HIVES[1]
    }
}

/// The CPU hive `hive`'s threads are pinned to.
fn cpu_of(hive: HiveId) -> usize {
    hive.0 as usize - 1
}

fn other(hive: HiveId) -> HiveId {
    if hive == HIVES[0] {
        HIVES[1]
    } else {
        HIVES[0]
    }
}

/// Where the workload wants the app state of switch `dpid` to live.
pub fn state_home(kind: Kind, dpid: u64) -> HiveId {
    match kind {
        Kind::Remote => other(master_of(dpid)),
        Kind::Local => master_of(dpid),
    }
}

/// Binds both reactor transports on loopback and brings up the connection
/// in each direction before any hive runs, returning them in hive order.
///
/// The order of the steps works around a defect in `beehive-net` at this
/// commit (README "Known defects"): a reactor that accepts its first inbound
/// connection while it has no outbound one indexes its `pollfd` list out of
/// bounds and its thread dies. So each reactor is given an outbound
/// connection before the other dials it: hive 1's first goes to a listener
/// nobody serves, is re-pointed at hive 2 once hive 2 has dialled in, and
/// each real direction is proven with one frame that this function — not a
/// hive — receives.
pub fn connect_pair() -> Result<Bound, String> {
    let any: SocketAddr = "127.0.0.1:0".parse().expect("literal address");
    let bind = |id: HiveId, peers: HashMap<HiveId, SocketAddr>| {
        bind_tcp(TransportPreference::Reactor, id, any, peers)
            .map_err(|e| format!("bind hive {}: {e}", id.0))
    };
    let probe = || Frame::control(Vec::new());
    let expect_probe = |t: &dyn Transport, what: &str| {
        let deadline = Instant::now() + Duration::from_secs(5);
        while t.try_recv().is_none() {
            if Instant::now() > deadline {
                return Err(format!("no frame arrived over {what}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    };

    let parked = std::net::TcpListener::bind(any).map_err(|e| format!("bind: {e}"))?;
    let parked_addr = parked
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let (t1, addr1, c1) = bind(HIVES[0], HashMap::from([(HIVES[1], parked_addr)]))?;
    t1.send(HIVES[1], probe());
    let (held, _) = parked.accept().map_err(|e| format!("accept: {e}"))?;

    let (t2, addr2, c2) = bind(HIVES[1], HashMap::from([(HIVES[0], addr1)]))?;
    t2.send(HIVES[0], probe());
    expect_probe(t1.as_ref(), "hive 2 -> hive 1")?;

    t1.connect_peer(HIVES[1], &addr2.to_string());
    drop(held);
    drop(parked);
    // The reactor notices the closed socket on its own schedule; a probe
    // sent before that is written into the dead connection, so keep probing.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        t1.send(HIVES[1], probe());
        std::thread::sleep(Duration::from_millis(2));
        if t2.try_recv().is_some() {
            break;
        }
        if Instant::now() > deadline {
            return Err("no frame arrived over hive 1 -> hive 2".into());
        }
    }
    while t2.try_recv().is_some() {}
    std::thread::sleep(Duration::from_millis(5));
    while t2.try_recv().is_some() {}
    Ok((t1, c1, t2, c2))
}

/// Both transports with their counters, in hive order.
pub type Bound = (
    Box<dyn Transport>,
    Arc<TransportCounters>,
    Box<dyn Transport>,
    Arc<TransportCounters>,
);

type Job = Box<dyn FnOnce(&mut Hive) + Send>;

/// One hive on its own thread. The thread owns the `Hive`; everyone else
/// reaches it through [`HiveThread::with`], which interrupts `Hive::run`,
/// runs a closure on the hive and resumes — used between phases only.
pub struct HiveThread {
    pub id: HiveId,
    pub handle: HiveHandle,
    pub counters: Arc<TransportCounters>,
    jobs: mpsc::Sender<Job>,
    interrupt: Arc<AtomicBool>,
    quit: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl HiveThread {
    fn spawn(
        cfg: HiveConfig,
        transport: Box<dyn Transport>,
        counters: Arc<TransportCounters>,
        apps: impl FnOnce() -> Vec<App> + Send + 'static,
    ) -> HiveThread {
        let id = cfg.id;
        let (jobs, job_rx) = mpsc::channel::<Job>();
        let (ready_tx, ready_rx) = mpsc::channel();
        let interrupt = Arc::new(AtomicBool::new(false));
        let quit = Arc::new(AtomicBool::new(false));
        let (interrupt2, quit2) = (interrupt.clone(), quit.clone());
        let thread = std::thread::Builder::new()
            .name(format!("bh-hive-{}", id.0))
            .spawn(move || {
                crate::clock::pin_to_cpu(0, cpu_of(id));
                let mut hive = Hive::new(cfg, Arc::new(SystemClock::new()), transport);
                for app in apps() {
                    hive.install(app);
                }
                ready_tx.send(hive.handle()).expect("booting thread waits");
                while !quit2.load(Ordering::SeqCst) {
                    hive.run(&interrupt2);
                    interrupt2.store(false, Ordering::SeqCst);
                    while let Ok(job) = job_rx.try_recv() {
                        job(&mut hive);
                    }
                }
                // Dropping the hive drops the transport, which joins its
                // reactor thread and closes its sockets.
            })
            .expect("spawn hive thread");
        let handle = ready_rx.recv().expect("hive thread reports its handle");
        HiveThread {
            id,
            handle,
            counters,
            jobs,
            interrupt,
            quit,
            thread: Some(thread),
        }
    }

    /// Runs `f` on the hive, between two calls of `Hive::run`.
    pub fn with<T: Send + 'static>(&self, f: impl FnOnce(&mut Hive) -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        // The job is queued before the interrupt is raised, so whichever
        // pass of the hive thread's loop sees the interrupt also sees the job.
        self.jobs
            .send(Box::new(move |hive| {
                let _ = tx.send(f(hive));
            }))
            .expect("hive thread alive");
        self.interrupt.store(true, Ordering::SeqCst);
        self.handle.nudge();
        rx.recv().expect("hive thread answers")
    }

    fn stop(&mut self) {
        self.quit.store(true, Ordering::SeqCst);
        self.interrupt.store(true, Ordering::SeqCst);
        self.handle.nudge();
        if let Some(t) = self.thread.take() {
            if t.join().is_err() {
                eprintln!("hive {} thread panicked", self.id.0);
            }
        }
    }
}

impl Drop for HiveThread {
    fn drop(&mut self) {
        self.stop();
    }
}

pub struct Cluster {
    pub hives: Vec<HiveThread>,
    pub sink: Arc<Sink>,
    pub trace: Arc<TraceShared>,
    dir: PathBuf,
}

impl Cluster {
    /// Binds both transports, starts both hives and waits for a registry
    /// leader and for the workload's state placement. Everything after that
    /// (handshakes, learning, warm-up) is the generator's.
    pub fn boot(
        kind: Kind,
        sink: Arc<Sink>,
        traced: bool,
        dir: PathBuf,
    ) -> Result<Cluster, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let (t1, c1, t2, c2) = connect_pair()?;
        // A hive is its hive thread and its reactor thread, and each hive has
        // one CPU to itself, as a single-core host would give it. Left to the
        // scheduler, the four threads settle into a placement that holds for
        // a whole run and differs between runs (`pktin_remote` then reads
        // 7 000 or 9 300 events/s, 330 or 500 µs); the generator floats.
        for id in HIVES {
            let reactor = crate::procfs::thread_id(&format!("bh-reactor-{}", id.0))
                .ok_or_else(|| format!("hive {} has no reactor thread", id.0))?;
            crate::clock::pin_to_cpu(reactor, cpu_of(id));
        }

        let trace = TraceShared::new();
        let mut hives = Vec::new();
        for (id, transport, counters) in [(HIVES[0], t1, c1), (HIVES[1], t2, c2)] {
            let mut cfg = HiveConfig::clustered(id, HIVES.to_vec(), HIVES.len());
            cfg.workers = 1;
            cfg.registry_storage_dir = Some(dir.clone());
            cfg.fsync = FsyncPolicy::Never;
            let io: Arc<dyn SwitchIo> = sink.clone();
            // An untraced run has no wrapper at all, not a disabled one.
            let transport: Box<dyn Transport> = if traced {
                Box::new(TracedTransport::new(transport, trace.clone()))
            } else {
                transport
            };
            hives.push(HiveThread::spawn(cfg, transport, counters, move || {
                vec![driver_app(io), learning_switch_app()]
            }));
        }
        let cluster = Cluster {
            hives,
            sink,
            trace,
            dir,
        };

        cluster.wait_for("a registry leader", || {
            cluster
                .hives
                .iter()
                .any(|h| h.with(|hive| hive.is_registry_leader()))
        })?;
        if kind == Kind::Remote {
            cluster.place_remote_state()?;
        }
        Ok(cluster)
    }

    pub fn hive(&self, id: HiveId) -> &HiveThread {
        self.hives.iter().find(|h| h.id == id).expect("hive 1 or 2")
    }

    /// Figure 4c's starting state, held: every switch's `macs` cell is
    /// claimed on the hive that is *not* its master, and no optimizer is
    /// installed to move it back.
    fn place_remote_state(&self) -> Result<(), String> {
        for dpid in 1..=SWITCHES as u64 {
            self.hive(state_home(Kind::Remote, dpid)).with(move |hive| {
                hive.preclaim(
                    LEARNING_SWITCH_APP,
                    vec![Cell::new("macs", dpid.to_string())],
                );
            });
        }
        self.wait_for("the preclaimed macs cells", || {
            self.misplaced(Kind::Remote) == 0
        })
    }

    /// How many switches' `macs` cells the registry does not (yet) show on
    /// the hive the workload intends. Checked on both hives' views.
    pub fn misplaced(&self, kind: Kind) -> usize {
        self.hives
            .iter()
            .map(|h| {
                h.with(move |hive| {
                    let view = hive.registry_view();
                    (1..=SWITCHES as u64)
                        .filter(|&dpid| {
                            let cell = Cell::new("macs", dpid.to_string());
                            let at = view
                                .owner(LEARNING_SWITCH_APP, &cell)
                                .and_then(|bee| view.hive_of(bee));
                            at != Some(state_home(kind, dpid))
                        })
                        .count()
                })
            })
            .max()
            .unwrap_or(0)
    }

    fn wait_for(&self, what: &str, mut ready: impl FnMut() -> bool) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !ready() {
            if Instant::now() > deadline {
                return Err(format!("timed out waiting for {what}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }

    /// Stops both hives (joining their threads and their reactors) and
    /// removes the storage directory.
    pub fn shutdown(mut self) {
        for h in &mut self.hives {
            h.stop();
        }
        self.hives.clear();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
